package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"

	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/faults"
	"github.com/mssn/loopscope/internal/obs"
)

// faultedScale is study-faulted's run scale: one to three runs per
// location, 229 runs over the 102 locations.
const faultedScale = 0.25

// faultRate is the corruption rate of faults.Profile for every run.
const faultRate = 0.05

// checkStudy verifies one faulted study outside the timed region: every
// record's streamed analysis must equal the batch analysis of its own
// timeline. It returns a digest of the encoded records.
func checkStudy(out *outcome, st *campaign.Study) (string, error) {
	h := sha256.New()
	for _, rec := range st.Records("") {
		out.attempted++
		if rec.Failed() {
			out.failed++
			out.problemf("study-faulted: run %s/%s loc %d run %d failed: %s", rec.Op, rec.Area, rec.LocIndex, rec.RunIndex, rec.Err)
			continue
		}
		if !reflect.DeepEqual(core.Analyze(rec.Timeline), rec.Analysis) {
			out.problemf("study-faulted: run %s/%s loc %d run %d: streamed analysis differs from core.Analyze",
				rec.Op, rec.Area, rec.LocIndex, rec.RunIndex)
		}
		b, err := campaign.EncodeRecord(rec)
		if err != nil {
			return "", fmt.Errorf("encode record: %w", err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runStudyFaulted measures a fault-injected study: every run takes the
// salvage path simulate → emit → inject → lenient parse → trace.Builder
// → core.StreamDetector.
func runStudyFaulted(cfg config) (*outcome, error) {
	out := &outcome{}
	rates := faults.Profile(faultRate)
	opts := campaign.Options{Seed: cfg.seed, RunScale: faultedScale, FaultRates: &rates, Workers: cfg.workers}
	setupS, err := medianSetup(func() error { return warmUp(opts) })
	if err != nil {
		return nil, err
	}

	var first string
	var simMinutes float64
	// record checks one study outside the timed region and compares its
	// records with the first iteration's.
	record := func(st *campaign.Study) error {
		digest, err := checkStudy(out, st)
		if err != nil {
			return err
		}
		if first == "" {
			first, simMinutes = digest, studyMinutes(st.Records(""))
		} else if digest != first {
			out.problemf("study-faulted: records differ between iterations (digest %s vs %s)", digest[:12], first[:12])
		}
		return nil
	}
	runStudy := func(o campaign.Options) (timing, *campaign.Study, error) {
		var st *campaign.Study
		t, err := timed(func() error {
			var err error
			st, err = campaign.RunContext(context.Background(), o)
			return err
		})
		return t, st, err
	}

	probe := newSpeedProbe()
	var untraced []timing
	untracedIter := func() error {
		t, st, err := runStudy(opts)
		if err != nil {
			return err
		}
		untraced = append(untraced, t)
		probe.after(t.wall)
		return record(st)
	}
	if !cfg.traced {
		if err := repeat(cfg.budget, minIterations, nil, untracedIter); err != nil {
			return nil, err
		}
		setTimings(out, probe, setupS, untraced, [][]float64{walls(untraced)}, simMinutes)
		out.notef("study-faulted: %d runs per iteration at scale %g, fault rate %g, %d iterations, digest %s",
			out.attempted/int64(len(untraced)), faultedScale, faultRate, len(untraced), first[:16])
		return out, nil
	}

	// Traced iterations: the registry rides on the public Options.Metrics
	// hook; outputs are checked after the profiler stops.
	var traced []timing
	var all []counts
	var st *campaign.Study
	var reg *obs.Registry
	tracedIter := func() error {
		reg = obs.NewRegistry()
		o := opts
		o.Metrics = reg
		t, s, err := runStudy(o)
		traced, st = append(traced, t), s
		return err
	}
	settle := func() error {
		c := fromRegistry(reg)
		c.traceSteps, c.coreLoops = recordWork(st.Records(""))
		all = append(all, c)
		return record(st)
	}
	samples, err := alternate(cfg.budget, nil, untracedIter, tracedIter, settle)
	if err != nil {
		return nil, err
	}
	setLayers(out, samples, untraced, traced, median(walls(untraced)), median(walls(traced)))
	setCounts(out, sameCounts(out, all))
	setSpans(out, map[string]float64{"span.study_s": median(walls(traced))})
	return out, nil
}
