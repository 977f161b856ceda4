package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/experiments"
	"github.com/mssn/loopscope/internal/obs"
)

// studyDuration is the CLI's default stationary run length (§4.1).
const studyDuration = 5 * time.Minute

// warmUp is the set-up of the simulating workloads: one study at a
// single run per location, through the same options the timed
// iterations use. It builds the seed's 11 deployments and fills the
// pipeline's pools and heap before timing starts.
func warmUp(opts campaign.Options) error {
	opts.RunScale = campaign.MinRunScale
	st, err := campaign.RunContext(context.Background(), opts)
	if err != nil {
		return fmt.Errorf("warm-up study: %w", err)
	}
	if n := st.Failures(); n > 0 {
		return fmt.Errorf("warm-up study: %d runs failed", n)
	}
	return nil
}

// paperRun is the output of one regeneration of every figure.
type paperRun struct {
	digest string // SHA-256 over every generator's ID and lines
	study  []*campaign.Record
}

// runGenerators runs every registered generator over ctx and returns
// their results with each generator's wall seconds.
func runGenerators(ctx *experiments.Context) ([]*experiments.Result, []float64) {
	gens := experiments.All()
	out := make([]*experiments.Result, len(gens))
	secs := make([]float64, len(gens))
	for i, g := range gens {
		t0 := time.Now()
		out[i] = g.Run(ctx)
		secs[i] = time.Since(t0).Seconds()
	}
	return out, secs
}

// summarize digests one regeneration; it runs outside the timed
// region.
func summarize(ctx *experiments.Context, results []*experiments.Result) paperRun {
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "%s\x00", r.ID)
		for _, line := range r.Lines {
			fmt.Fprintf(h, "%s\n", line)
		}
	}
	return paperRun{digest: hex.EncodeToString(h.Sum(nil)), study: ctx.Study().Records("")}
}

// runPaper measures `campaign -exp all` at the CLI defaults.
func runPaper(cfg config) (*outcome, error) {
	out := &outcome{}
	opts := campaign.Options{Seed: cfg.seed, Workers: cfg.workers}
	setupS, err := medianSetup(func() error { return warmUp(opts) })
	if err != nil {
		return nil, err
	}
	// record checks one regeneration against the first and keeps only
	// its digest, so retained outputs do not inflate peak_rss_mb.
	var digest string // the first iteration's
	var studyRuns, iterations int
	var simMinutes float64
	record := func(r paperRun) {
		iterations++
		out.attempted += int64(len(r.study))
		for _, rec := range r.study {
			if rec.Failed() {
				out.failed++
			}
		}
		if iterations == 1 {
			digest, studyRuns, simMinutes = r.digest, len(r.study), studyMinutes(r.study)
		} else if r.digest != digest {
			out.problemf("paper: generator output of iteration %d differs from iteration 1 (digest %s vs %s)",
				iterations, r.digest[:12], digest[:12])
		}
	}

	probe := newSpeedProbe()
	var untraced []timing
	units := make([][]float64, len(experiments.All())) // per generator
	untracedIter := func() error {
		var ctx *experiments.Context
		var results []*experiments.Result
		var secs []float64
		t, err := timed(func() error {
			ctx = experiments.NewContext(opts)
			results, secs = runGenerators(ctx)
			return nil
		})
		if err != nil {
			return err
		}
		untraced = append(untraced, t)
		probe.after(t.wall)
		for i, s := range secs {
			units[i] = append(units[i], s)
		}
		record(summarize(ctx, results))
		return nil
	}
	if !cfg.traced {
		if err := repeat(cfg.budget, minIterations, nil, untracedIter); err != nil {
			return nil, err
		}
		setTimings(out, probe, setupS, untraced, units, simMinutes)
		out.notef("paper: %d generators, %d study runs per iteration, digest %s",
			len(experiments.All()), studyRuns, digest[:16])
		return out, nil
	}

	// Traced iterations: the registry rides on the public Options.Metrics
	// hook, and the spans time each call the benchmark makes — the study,
	// the dense grids, then the generators that render from both.
	var traced []timing
	var all []counts
	spans := map[string][]float64{}
	var ctx *experiments.Context
	var results []*experiments.Result
	var reg *obs.Registry
	tracedIter := func() error {
		reg = obs.NewRegistry()
		o := opts
		o.Metrics = reg
		t, err := timed(func() error {
			ctx = experiments.NewContext(o)
			t0 := time.Now()
			ctx.Study()
			t1 := time.Now()
			ctx.Dense()
			ctx.DenseS1()
			t2 := time.Now()
			results, _ = runGenerators(ctx)
			spans["span.study_s"] = append(spans["span.study_s"], t1.Sub(t0).Seconds())
			spans["span.dense_s"] = append(spans["span.dense_s"], t2.Sub(t1).Seconds())
			spans["span.generators_s"] = append(spans["span.generators_s"], time.Since(t2).Seconds())
			return nil
		})
		traced = append(traced, t)
		return err
	}
	settle := func() error {
		r := summarize(ctx, results)
		record(r)
		c := fromRegistry(reg)
		c.traceSteps, c.coreLoops = recordWork(r.study)
		all = append(all, c)
		return nil
	}
	samples, err := alternate(cfg.budget, nil, untracedIter, tracedIter, settle)
	if err != nil {
		return nil, err
	}

	// Bit-determinism at another worker count: one untraced
	// regeneration on a single worker must print the same lines.
	one := opts
	one.Workers = 1
	ctx = experiments.NewContext(one)
	results, _ = runGenerators(ctx)
	if r := summarize(ctx, results); r.digest != digest {
		out.problemf("paper: one-worker output differs from %d-worker output (digest %s vs %s)",
			cfg.workers, r.digest[:12], digest[:12])
	}

	setLayers(out, samples, untraced, traced, median(walls(untraced)), median(walls(traced)))
	setCounts(out, sameCounts(out, all))
	medians := map[string]float64{}
	for k, v := range spans {
		medians[k] = median(v)
	}
	setSpans(out, medians)
	return out, nil
}

// studyMinutes is the UE time simulated by a study's completed runs.
func studyMinutes(recs []*campaign.Record) float64 {
	n := 0
	for _, r := range recs {
		if !r.Failed() {
			n++
		}
	}
	return float64(n) * studyDuration.Minutes()
}

// recordWork counts the timeline steps and loops of a study's runs.
func recordWork(recs []*campaign.Record) (steps, loops int64) {
	for _, r := range recs {
		if r.Failed() {
			continue
		}
		steps += int64(len(r.Timeline.Steps))
		loops += int64(len(r.Analysis.Loops))
	}
	return steps, loops
}
