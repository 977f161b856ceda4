package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/device"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/uesim"
)

// capture is one NSG text capture of the ingest corpus.
type capture struct {
	name string
	text []byte
	want string // loops and sub-types of the in-memory log it was rendered from
}

// corpus is the ingest workload's input.
type corpus struct {
	captures []capture
	bytes    int64
	events   int64   // events the simulator emitted into the corpus
	minutes  float64 // UE time the captures cover
	digest   string
}

// renderCorpus simulates one stationary run at every test location of
// the seed's 11 deployments and renders each as NSG text. The corpus
// covers all three operators and every location archetype, so it
// holds both looping and loop-free captures.
func renderCorpus(seed int64) (*corpus, error) {
	c := &corpus{}
	h := sha256.New()
	dev := device.OnePlus12R()
	looping := 0
	for _, op := range policy.All() {
		for _, spec := range deploy.AreasFor(op.Name) {
			dep := deploy.Build(op, spec, seed+1)
			for _, cl := range dep.Clusters {
				log := uesim.Run(uesim.Config{
					Op: op, Field: dep.Field, Cluster: cl, Device: dev,
					Duration: studyDuration,
					Seed:     seed*1_000_003 + int64(len(c.captures))*7919,
				}).Log
				var buf bytes.Buffer
				if _, err := log.WriteTo(&buf); err != nil {
					return nil, fmt.Errorf("render %s loc %d: %w", spec.ID, cl.Index, err)
				}
				an := core.Analyze(trace.FromLog(log))
				if an.HasLoop() {
					looping++
				}
				c.captures = append(c.captures, capture{
					name: fmt.Sprintf("%s/%s/loc%d", op.Name, spec.ID, cl.Index),
					text: buf.Bytes(),
					want: verdict(an),
				})
				c.bytes += int64(buf.Len())
				c.events += int64(log.Len())
				c.minutes += studyDuration.Minutes()
				h.Write(buf.Bytes())
			}
		}
	}
	if looping == 0 || looping == len(c.captures) {
		return nil, fmt.Errorf("corpus of seed %d has %d looping captures of %d; it needs both kinds", seed, looping, len(c.captures))
	}
	c.digest = hex.EncodeToString(h.Sum(nil))
	return c, nil
}

// verdict renders the loops and sub-types of an analysis: the output
// a capture's analysis is checked against.
func verdict(an core.Analysis) string {
	var b strings.Builder
	for i, l := range an.Loops {
		fmt.Fprintf(&b, "%d+%dx%d..%d %s %s %s;", l.Start, l.CycleLen, l.Reps, l.End, l.Form, an.Subtypes[i], l.Fingerprint())
	}
	return b.String()
}

// runIngest measures the `loopctl analyze` path: strict sig.Parse,
// trace.FromLog, core.Analyze, one capture at a time from memory,
// closed loop, over repeated passes of the corpus.
func runIngest(cfg config) (*outcome, error) {
	out := &outcome{}
	// Each render replaces the previous one, which is dropped first so
	// that peak_rss_mb holds one corpus.
	var cor *corpus
	var digest string
	setupS, err := medianSetup(func() error {
		cor = nil
		c, err := renderCorpus(cfg.seed)
		if err != nil {
			return err
		}
		if digest != "" && c.digest != digest {
			return fmt.Errorf("corpus of seed %d rendered differently twice", cfg.seed)
		}
		cor, digest = c, c.digest
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := len(cor.captures)
	got := make([]core.Analysis, n)
	failed := make([]error, n)

	// check compares one pass's verdicts with the in-memory logs'.
	check := func() {
		for i, c := range cor.captures {
			out.attempted++
			switch {
			case failed[i] != nil:
				out.failed++
				out.problemf("ingest: %s: %v", c.name, failed[i])
			case verdict(got[i]) != c.want:
				out.problemf("ingest: %s: parsed capture gives %q, its in-memory log %q", c.name, verdict(got[i]), c.want)
			}
		}
	}

	probe := newSpeedProbe()
	var untraced []timing
	units := make([][]float64, n) // per capture, seconds from bytes to verdict in each pass
	untracedPass := func() error {
		t, err := timed(func() error {
			for i, c := range cor.captures {
				t0 := time.Now()
				log, err := sig.Parse(bytes.NewReader(c.text))
				if failed[i] = err; err != nil {
					continue
				}
				got[i] = core.Analyze(trace.FromLog(log))
				units[i] = append(units[i], time.Since(t0).Seconds())
			}
			return nil
		})
		if err != nil {
			return err
		}
		untraced = append(untraced, t)
		probe.after(t.wall)
		check()
		return nil
	}
	if !cfg.traced {
		more := func() bool { return !enoughFor(len(untraced)*n, 0.99) }
		if err := repeat(cfg.budget, minIterations, more, untracedPass); err != nil {
			return nil, err
		}
		setTimings(out, probe, setupS, untraced, units, cor.minutes)
		var latencies []float64
		for _, u := range units {
			latencies = append(latencies, u...)
		}
		sort.Float64s(latencies)
		p50, err := percentile(latencies, 0.50)
		if err != nil {
			return nil, err
		}
		p99, err := percentile(latencies, 0.99)
		if err != nil {
			return nil, err
		}
		out.notef("%-28s %14.6g MB/s", "ingest_mb_per_s", float64(cor.bytes)/1e6/iterationWall(units))
		out.notef("%-28s %14.6g ms (%d captures)", "capture_p50_ms", 1e3*p50, len(latencies))
		out.notef("%-28s %14.6g ms (%d captures)", "capture_p99_ms", 1e3*p99, len(latencies))
		out.notef("ingest: %d captures, %.2f MB, %d passes, corpus %s", n, float64(cor.bytes)/1e6, len(untraced), cor.digest[:16])
		return out, nil
	}

	// Traced passes: a span around each call into a layer, and an
	// obs.Registry on the public ParseObserved hook. Each pass gets its
	// own registry, so its counts are one pass's work.
	var traced []timing
	var parse, extract, analyze []float64 // seconds per capture
	tracedUnits := make([][]float64, n)   // per capture, the three spans' sum
	var all []counts
	tracedPass := func() error {
		reg := obs.NewRegistry()
		var steps, loops int64
		t, err := timed(func() error {
			for i, capt := range cor.captures {
				t0 := time.Now()
				log, err := sig.ParseObserved(bytes.NewReader(capt.text), reg)
				t1 := time.Now()
				if failed[i] = err; err != nil {
					continue
				}
				tl := trace.FromLog(log)
				t2 := time.Now()
				got[i] = core.Analyze(tl)
				t3 := time.Now()
				parse = append(parse, t1.Sub(t0).Seconds())
				extract = append(extract, t2.Sub(t1).Seconds())
				analyze = append(analyze, t3.Sub(t2).Seconds())
				tracedUnits[i] = append(tracedUnits[i], t3.Sub(t0).Seconds())
				steps += int64(len(tl.Steps))
				loops += int64(len(got[i].Loops))
			}
			return nil
		})
		traced = append(traced, t)
		c := fromRegistry(reg)
		c.uesimEvents, c.traceSteps, c.coreLoops = cor.events, steps, loops
		all = append(all, c)
		return err
	}
	settle := func() error {
		check()
		return nil
	}
	more := func() bool { return !enoughFor(len(parse), 0.99) }
	samples, err := alternate(cfg.budget, more, untracedPass, tracedPass, settle)
	if err != nil {
		return nil, err
	}
	setLayers(out, samples, untraced, traced, iterationWall(units), iterationWall(tracedUnits))
	setCounts(out, sameCounts(out, all))
	spans := map[string]float64{}
	for name, xs := range map[string][]float64{
		"span.sig.parse_p50_us": parse, "span.trace.extract_p50_us": extract, "span.core.analyze_p50_us": analyze,
	} {
		sort.Float64s(xs)
		p50, err := percentile(xs, 0.50)
		if err != nil {
			return nil, err
		}
		spans[name] = 1e6 * p50
	}
	p99, err := percentile(parse, 0.99) // sorted above
	if err != nil {
		return nil, err
	}
	spans["span.sig.parse_p99_us"] = 1e6 * p99
	setSpans(out, spans)
	return out, nil
}
