package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/mssn/loopscope/internal/obs"
)

// timing is the cost of one measured call.
type timing struct{ wall, cpu float64 } // seconds

// timed runs fn and returns its wall-clock and process CPU time.
func timed(fn func() error) (timing, error) {
	c0, err := cpuTime()
	if err != nil {
		return timing{}, err
	}
	t0 := time.Now()
	err = fn()
	wall := time.Since(t0)
	if err != nil {
		return timing{}, err
	}
	c1, err := cpuTime()
	if err != nil {
		return timing{}, err
	}
	return timing{wall: wall.Seconds(), cpu: (c1 - c0).Seconds()}, nil
}

// repeat calls fn until it has run at least minRuns times, budget has
// elapsed and more reports it is done (nil means done).
func repeat(budget time.Duration, minRuns int, more func() bool, fn func() error) error {
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < budget || (more != nil && more()); i++ {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// medianSetup times setup setupRuns times and returns the median wall
// seconds. A collection after each repetition drops the previous
// repetition's garbage, so peak_rss_mb reflects one set-up, not how
// many the run repeated.
func medianSetup(setup func() error) (float64, error) {
	var walls []float64
	for i := 0; i < setupRuns; i++ {
		t, err := timed(setup)
		if err != nil {
			return 0, err
		}
		walls = append(walls, t.wall)
		runtime.GC()
	}
	return median(walls), nil
}

// profiled runs fn under the CPU profiler and returns the sampled
// stacks.
func profiled(fn func() error) ([]stackSample, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return decodeProfile(buf.Bytes())
}

// alternate runs untraced and traced iterations in turn until budget
// has elapsed, each at least twice, and more (when not nil) reports
// done. Drift in machine speed then hits both sides alike, so their
// ratio is the tracing overhead. Only the traced iterations run under
// the CPU profiler; settle runs after each of them, outside the
// profile, for output checks and counts.
func alternate(budget time.Duration, more func() bool, untraced, traced, settle func() error) ([]stackSample, error) {
	var samples []stackSample
	err := repeat(budget, 2, more, func() error {
		if err := untraced(); err != nil {
			return err
		}
		s, err := profiled(traced)
		if err != nil {
			return err
		}
		samples = append(samples, s...)
		return settle()
	})
	return samples, err
}

// setTimings reports the untraced end-to-end figures every workload
// shares, scaled to reference speed by the run's probe. units holds,
// for each unit of work an iteration repeats in the same order, its
// wall seconds in every iteration; simMinutes is the UE time one
// iteration processes. The measured figures go to the report.
func setTimings(out *outcome, probe *speedProbe, setupS float64, untraced []timing, units [][]float64, simMinutes float64) {
	f := probe.factor()
	wall, cpu := iterationWall(units), median(cpus(untraced))
	out.set("setup_s", setupS*f, "s")
	out.set("wall_s", wall*f, "s")
	out.set("cpu_s", cpu*f, "s")
	out.set("sim_min_per_s", simMinutes/(wall*f), "min/s")
	ws := walls(untraced)
	sort.Float64s(ws)
	out.notef("measured: setup %.4f s, wall %.4f s, cpu %.4f s; speed factor %.4f from %d probes",
		setupS, wall, cpu, f, len(probe.times))
	out.notef("wall_s from %d iterations of %d units; whole iterations took %.4f–%.4f s",
		len(ws), len(units), ws[0], ws[len(ws)-1])
}

// iterationWall estimates one iteration's wall time as the sum, over
// its units of work, of each unit's median across iterations. Without
// interference this equals the median iteration. In a shared sandbox,
// where CPU steal stalls the process in bursts, a burst only lifts the
// units it hits, so the estimate stays steady where the median of
// whole iterations would move.
func iterationWall(units [][]float64) float64 {
	var sum float64
	for _, u := range units {
		sum += median(u)
	}
	return sum
}

// setLayers reports the per-layer CPU attribution of a traced phase:
// each row's share of the profile samples times the traced CPU per
// iteration, so the rows sum to the traced CPU exactly. The wall
// estimates of one untraced and one traced iteration give the tracing
// overhead.
func setLayers(out *outcome, samples []stackSample, untraced, traced []timing, untracedWall, tracedWall float64) {
	shares, total := layerShares(samples)
	cpu := median(cpus(traced))
	var sum float64
	for _, row := range layerRows {
		v := shares[row] * cpu
		sum += v
		out.set("layer."+row+".cpu_s", v, "s")
	}
	out.set("layer.coverage", 1-shares[rowUnattributed], "ratio")
	out.set("layer.samples", float64(total), "count")
	out.set("layer.sum_cpu_s", sum, "s")
	baseCPU := median(cpus(untraced))
	out.set("trace.untraced_cpu_s", baseCPU, "s")
	out.set("trace.overhead", tracedWall/untracedWall-1, "ratio")
	out.notef("layer rows sum %.4f s (traced) next to untraced cpu_s %.4f s; coverage %.4f of %d samples",
		sum, baseCPU, 1-shares[rowUnattributed], total)
}

// counts are the per-layer work counts of one traced iteration.
type counts struct {
	runs, runsSalvaged, uesimEvents            int64
	sigLines, sigRecordsDropped, sigEventsKept int64
	faultsInjected, traceSteps, coreLoops      int64
}

// fromRegistry reads the counters the pipeline publishes through its
// public obs hooks.
func fromRegistry(reg *obs.Registry) counts {
	var c counts
	for _, cv := range reg.Snapshot().Counters {
		switch {
		case cv.Name == "campaign.runs":
			c.runs = cv.Value
		case cv.Name == "campaign.salvaged_runs":
			c.runsSalvaged = cv.Value
		case cv.Name == "uesim.events.emitted":
			c.uesimEvents = cv.Value
		case cv.Name == "sig.lines.read":
			c.sigLines = cv.Value
		case cv.Name == "sig.records.dropped":
			c.sigRecordsDropped = cv.Value
		case cv.Name == "sig.events.kept":
			c.sigEventsKept = cv.Value
		case strings.HasPrefix(cv.Name, "faults."):
			c.faultsInjected += cv.Value
		}
	}
	return c
}

// sameCounts checks that every traced iteration did the same work —
// the counts are deterministic for a seed — and returns the first.
func sameCounts(out *outcome, all []counts) counts {
	for i, c := range all {
		if c != all[0] {
			out.problemf("traced iteration %d counted %+v, iteration 1 counted %+v", i+1, c, all[0])
		}
	}
	return all[0]
}

// setCounts reports one traced iteration's counts.
func setCounts(out *outcome, c counts) {
	out.set("count.runs", float64(c.runs), "count")
	out.set("count.runs_salvaged", float64(c.runsSalvaged), "count")
	out.set("count.uesim.events", float64(c.uesimEvents), "count")
	out.set("count.sig.lines", float64(c.sigLines), "count")
	out.set("count.sig.records_dropped", float64(c.sigRecordsDropped), "count")
	out.set("count.sig.events_kept", float64(c.sigEventsKept), "count")
	out.set("count.faults.injected", float64(c.faultsInjected), "count")
	out.set("count.trace.steps", float64(c.traceSteps), "count")
	out.set("count.core.loops", float64(c.coreLoops), "count")
	kept := 0.0
	if c.uesimEvents > 0 {
		kept = float64(c.sigEventsKept) / float64(c.uesimEvents)
	}
	out.set("ratio.salvage_kept", kept, "ratio")
}

// spanNames are the benchmark-side spans; a workload reports the ones
// around the calls it makes and zero for the rest.
var spanNames = []struct{ name, unit string }{
	{"span.study_s", "s"},
	{"span.dense_s", "s"},
	{"span.generators_s", "s"},
	{"span.sig.parse_p50_us", "us"},
	{"span.sig.parse_p99_us", "us"},
	{"span.trace.extract_p50_us", "us"},
	{"span.core.analyze_p50_us", "us"},
}

// setSpans reports spans, zero for those the workload does not make.
func setSpans(out *outcome, spans map[string]float64) {
	for _, s := range spanNames {
		out.set(s.name, spans[s.name], s.unit)
	}
}

func walls(ts []timing) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.wall
	}
	return out
}

func cpus(ts []timing) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.cpu
	}
	return out
}
