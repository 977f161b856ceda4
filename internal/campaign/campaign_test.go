package campaign

import (
	"context"
	"encoding/csv"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/faults"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/policy"
)

// smallOpts keeps tests fast: slightly shorter runs, fewer repetitions.
// The duration stays close to the real 5-minute runs because slow loops
// (wide-gap S1E3 sites) need time to manifest.
func smallOpts() Options {
	return Options{Seed: 42, Duration: 240 * time.Second, RunScale: 0.5}
}

// runOneArea executes one area as a single-area study on the engine.
func runOneArea(t *testing.T, spec deploy.AreaSpec, opts Options) *AreaResult {
	t.Helper()
	st, _, err := runStudy(context.Background(), opts, []deploy.AreaSpec{spec}, false)
	if err != nil {
		t.Fatal(err)
	}
	return st.Areas[0]
}

func TestRunAreaBasics(t *testing.T) {
	spec := deploy.AreasFor("OPT")[1] // A2: 6 locations
	res := runOneArea(t, spec, smallOpts())
	wantRuns := 6 * 4 // 6 locations × max(1, 8*0.5) runs
	if len(res.Records) != wantRuns {
		t.Fatalf("records = %d, want %d", len(res.Records), wantRuns)
	}
	for _, r := range res.Records {
		if r.Op != "OPT" || r.Area != "A2" {
			t.Fatalf("bad record identity: %+v", r)
		}
		if r.Timeline == nil || len(r.Timeline.Steps) == 0 {
			t.Fatal("record missing timeline")
		}
		if r.MeasCount == 0 {
			t.Error("record should count measurement samples")
		}
	}
	if got := len(res.LoopLikelihood()); got != 6 {
		t.Errorf("likelihood entries = %d", got)
	}
}

func TestStudyShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full study in -short mode")
	}
	st := Run(smallOpts())
	if len(st.Areas) != 11 {
		t.Fatalf("areas = %d", len(st.Areas))
	}
	for _, op := range []string{"OPT", "OPA", "OPV"} {
		recs := st.Records(op)
		if len(recs) == 0 {
			t.Fatalf("%s: no records", op)
		}
		loops := 0
		for _, r := range recs {
			if r.HasLoop() {
				loops++
			}
		}
		ratio := float64(loops) / float64(len(recs))
		// F1: loops in roughly half the runs (generous band for the
		// scaled-down test study).
		if ratio < 0.25 || ratio > 0.75 {
			t.Errorf("%s loop ratio = %.2f, want ~0.5", op, ratio)
		}
		// Persistent loops dominate (F1).
		forms := st.FormCounts(op)
		if forms[core.FormSemiPersistent] > forms[core.FormPersistent] {
			t.Errorf("%s: semi-persistent (%d) should not dominate persistent (%d)",
				op, forms[core.FormSemiPersistent], forms[core.FormPersistent])
		}
	}

	// F13: S1E3 dominates OPT loops; N2 dominates OPA/OPV.
	optCounts := SubtypeCounts(st.Records("OPT"))
	if optCounts[core.S1E3] <= optCounts[core.S1E1] || optCounts[core.S1E3] <= optCounts[core.S1E2] {
		t.Errorf("OPT subtype counts = %v, want S1E3 dominant", optCounts)
	}
	for _, op := range []string{"OPA", "OPV"} {
		c := SubtypeCounts(st.Records(op))
		n2 := c[core.N2E1] + c[core.N2E2]
		n1 := c[core.N1E1] + c[core.N1E2]
		if n2 <= n1 {
			t.Errorf("%s subtype counts = %v, want N2 dominant", op, c)
		}
	}
	// F13: N1E2 absent on OPV.
	if c := SubtypeCounts(st.Records("OPV")); c[core.N1E2] != 0 {
		t.Errorf("OPV should have no N1E2: %v", SubtypeCounts(st.Records("OPV")))
	}
	// No SA subtypes on NSA operators and vice versa.
	for _, stx := range []core.Subtype{core.N1E1, core.N1E2, core.N2E1, core.N2E2} {
		if optCounts[stx] != 0 {
			t.Errorf("OPT has NSA subtype %v", stx)
		}
	}
}

func TestCombosFeatures(t *testing.T) {
	op := policy.OPT()
	dep := deploy.Build(op, deploy.AreasFor("OPT")[0], 43)
	cl := FindShowcase(dep)
	if cl == nil {
		t.Skip("no showcase cluster at this seed")
	}
	combos := Combos(op, dep, cl, cl.Loc)
	if len(combos) != 1 {
		t.Fatalf("combos = %d", len(combos))
	}
	c := combos[0]
	if c.SCellGapDB < 0 {
		c.SCellGapDB = -c.SCellGapDB
	}
	// The showcase is the smallest-gap S1E3 cluster: gap well under the
	// A3 offset.
	if c.SCellGapDB > 10 {
		t.Errorf("showcase SCell gap = %.1f dB, want small", c.SCellGapDB)
	}
	// The target anchor should be clearly preferred at its own site.
	if c.PCellGapDB < 3 {
		t.Errorf("PCell gap = %.1f dB, want positive preference", c.PCellGapDB)
	}
	if c.WorstSCellRSRPDBm > -60 || c.WorstSCellRSRPDBm < -130 {
		t.Errorf("worst SCell RSRP = %.1f", c.WorstSCellRSRPDBm)
	}
}

func TestDenseStudySmall(t *testing.T) {
	op := policy.OPT()
	dep := deploy.Build(op, deploy.AreasFor("OPT")[0], 43)
	cl := FindShowcase(dep)
	if cl == nil {
		t.Skip("no showcase cluster at this seed")
	}
	opts := smallOpts()
	points := DenseStudy(op, dep, cl, 60, 1, 3, opts) // 3×3 grid, 3 runs
	if len(points) != 9 {
		t.Fatalf("points = %d", len(points))
	}
	anyLoop := false
	for _, p := range points {
		if p.ProbS1E3 > 0 {
			anyLoop = true
		}
		if p.ProbS1 < p.ProbS1E3 {
			t.Errorf("S1 prob (%v) must include S1E3 (%v)", p.ProbS1, p.ProbS1E3)
		}
		if p.PairRSRP[0] == 0 || p.PairRSRP[1] == 0 {
			t.Error("pair RSRP map missing")
		}
	}
	if !anyLoop {
		t.Error("dense grid around a showcase should contain looping points")
	}
	samples := TrainingSamples(points, true)
	if len(samples) != 9 {
		t.Fatalf("training samples = %d", len(samples))
	}
	m := core.Fit(samples, core.FeatureSCellGap)
	if m == nil {
		t.Fatal("Fit returned nil")
	}
}

func TestExecuteRunDeterministic(t *testing.T) {
	op := policy.OPA()
	spec := deploy.AreasFor("OPA")[0]
	opts := smallOpts()
	dep := deploy.Build(op, spec, opts.Seed+1)
	a := ExecuteRun(context.Background(), op, dep, dep.Clusters[0], 0, 0, opts)
	b := ExecuteRun(context.Background(), op, dep, dep.Clusters[0], 0, 0, opts)
	if len(a.Timeline.Steps) != len(b.Timeline.Steps) {
		t.Fatal("non-deterministic run")
	}
	for i := range a.Timeline.Steps {
		if !a.Timeline.Steps[i].Set.Equal(b.Timeline.Steps[i].Set) {
			t.Fatal("non-deterministic timeline")
		}
	}
}

func TestKeepSpeeds(t *testing.T) {
	op := policy.OPT()
	spec := deploy.AreasFor("OPT")[1]
	opts := smallOpts()
	opts.KeepSpeeds = true
	dep := deploy.Build(op, spec, opts.Seed+1)
	rec := ExecuteRun(context.Background(), op, dep, dep.Clusters[0], 0, 0, opts)
	if len(rec.Speeds) == 0 {
		t.Fatal("speeds not kept")
	}
	if got := len(rec.Speeds); got != int(opts.Duration/time.Second) {
		t.Errorf("speed samples = %d", got)
	}
}

func TestSparseSamples(t *testing.T) {
	op := policy.OPT()
	opts := smallOpts()
	st := &Study{Opts: opts}
	st.Areas = append(st.Areas, runOneArea(t, deploy.AreasFor("OPT")[1], opts))
	samples := SparseSamples(st, op, true)
	if len(samples) != 6 {
		t.Fatalf("samples = %d, want 6 locations", len(samples))
	}
	for _, s := range samples {
		if s.Truth < 0 || s.Truth > 1 {
			t.Errorf("truth out of range: %v", s.Truth)
		}
		if len(s.Combos) == 0 {
			t.Error("sample without combos")
		}
	}
}

func TestCSVExport(t *testing.T) {
	opts := smallOpts()
	st := &Study{Opts: opts}
	st.Areas = append(st.Areas, runOneArea(t, deploy.AreasFor("OPT")[1], opts))

	var runs, loops, locs strings.Builder
	if err := st.WriteRunsCSV(&runs); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteLoopsCSV(&loops); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteLocationsCSV(&locs); err != nil {
		t.Fatal(err)
	}

	runRows, err := csv.NewReader(strings.NewReader(runs.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(runRows) != 1+len(st.Areas[0].Records) {
		t.Errorf("runs.csv rows = %d, want %d", len(runRows), 1+len(st.Areas[0].Records))
	}
	if runRows[0][0] != "operator" {
		t.Errorf("runs.csv header = %v", runRows[0])
	}
	locRows, err := csv.NewReader(strings.NewReader(locs.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(locRows) != 1+6 {
		t.Errorf("locations.csv rows = %d, want 7", len(locRows))
	}
	loopRows, err := csv.NewReader(strings.NewReader(loops.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Every loop row's cycle time equals on+off.
	for _, row := range loopRows[1:] {
		cyc, _ := strconv.ParseFloat(row[8], 64)
		on, _ := strconv.ParseFloat(row[9], 64)
		off, _ := strconv.ParseFloat(row[10], 64)
		if d := cyc - on - off; d > 0.01 || d < -0.01 {
			t.Fatalf("cycle %v != on %v + off %v", cyc, on, off)
		}
	}
}

// TestCrossSeedStability guards the calibration against seed lottery:
// the headline shapes must hold for several master seeds, not just the
// default one.
func TestCrossSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed study")
	}
	for _, seed := range []int64{7, 1234, 987654} {
		opts := Options{Seed: seed, Duration: 240 * time.Second, RunScale: 0.5}
		st := Run(opts)
		for _, op := range []string{"OPT", "OPA", "OPV"} {
			recs := st.Records(op)
			loops := 0
			for _, r := range recs {
				if r.HasLoop() {
					loops++
				}
			}
			ratio := float64(loops) / float64(len(recs))
			if ratio < 0.2 || ratio > 0.8 {
				t.Errorf("seed %d %s: loop ratio %.2f out of band", seed, op, ratio)
			}
		}
		optCounts := SubtypeCounts(st.Records("OPT"))
		if optCounts[core.S1E3] <= optCounts[core.S1E1] {
			t.Errorf("seed %d: S1E3 (%d) not above S1E1 (%d)", seed, optCounts[core.S1E3], optCounts[core.S1E1])
		}
		if c := SubtypeCounts(st.Records("OPV")); c[core.N1E2] != 0 {
			t.Errorf("seed %d: OPV shows N1E2", seed)
		}
	}
}

// TestRunScaleValidation pins what invalid scales mean: negative and
// NaN coerce to MinRunScale, which executes exactly one run per
// location instead of silently misbehaving.
func TestRunScaleValidation(t *testing.T) {
	for _, bad := range []float64{-3, math.NaN()} {
		o := Options{RunScale: bad}.withDefaults()
		if o.RunScale != MinRunScale {
			t.Errorf("RunScale %v normalized to %v, want MinRunScale", bad, o.RunScale)
		}
	}
	if o := (Options{}).withDefaults(); o.RunScale != 1 {
		t.Errorf("zero RunScale should default to 1, got %v", o.RunScale)
	}
	spec := deploy.AreasFor("OPT")[1] // A2: 6 locations
	res := runOneArea(t, spec, Options{Seed: 42, Duration: 30 * time.Second, RunScale: -1})
	if len(res.Records) != 6 {
		t.Errorf("invalid RunScale area = %d records, want 1 per location (6)", len(res.Records))
	}
}

// TestRunPanicIsolated: a panicking run yields a failure record with
// error and stack instead of tearing down the area, and the failure
// counters see it.
func TestRunPanicIsolated(t *testing.T) {
	testHookPanic = func(area string, locIdx, runIdx, attempt int) bool {
		return locIdx == 1 && runIdx == 0 // fails every attempt
	}
	defer func() { testHookPanic = nil }()

	spec := deploy.AreasFor("OPT")[1]
	opts := Options{Seed: 42, Duration: 30 * time.Second, RunScale: -1}
	res := runOneArea(t, spec, opts)

	if got := res.Failures(); got != 1 {
		t.Fatalf("Failures() = %d, want 1", got)
	}
	var failed *Record
	for _, r := range res.Records {
		if r.Failed() {
			failed = r
		} else if r.Timeline == nil {
			t.Error("healthy record lost its timeline")
		}
	}
	if failed == nil {
		t.Fatal("no failure record kept")
	}
	if failed.Err != "injected test failure" || !strings.Contains(failed.Stack, "runOnce") {
		t.Errorf("failure record = err %q, stack has runOnce: %v",
			failed.Err, strings.Contains(failed.Stack, "runOnce"))
	}
	if failed.Attempts != 1+DefaultMaxRetries {
		t.Errorf("Attempts = %d, want %d (initial + retries)", failed.Attempts, 1+DefaultMaxRetries)
	}
	if failed.HasLoop() || failed.Form() != core.FormNoLoop {
		t.Error("failure record must not report loops")
	}
	// Failure-aware aggregates: the failed location's likelihood
	// denominator shrinks instead of counting the crash as no-loop.
	if lik := res.LoopLikelihood(); len(lik) != 6 {
		t.Errorf("likelihood entries = %d", len(lik))
	}
}

// TestRunRetryRecovers: a run that fails only on its first attempt is
// retried with a perturbed seed and completes cleanly.
func TestRunRetryRecovers(t *testing.T) {
	testHookPanic = func(area string, locIdx, runIdx, attempt int) bool {
		return attempt == 0
	}
	defer func() { testHookPanic = nil }()

	op := policy.OPT()
	dep := deploy.Build(op, deploy.AreasFor("OPT")[1], 43)
	rec := ExecuteRun(context.Background(), op, dep, dep.Clusters[0], 0, 0, Options{Seed: 42, Duration: 30 * time.Second})
	if rec.Failed() {
		t.Fatalf("retry should have recovered: %s", rec.Err)
	}
	if rec.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", rec.Attempts)
	}
	if rec.Timeline == nil || len(rec.Timeline.Steps) == 0 {
		t.Error("recovered record missing its timeline")
	}
}

// TestRunAreaParallelEqualsSequential locks the determinism claim the
// worker pool makes: any worker count yields the same records, in the
// same order, as a forced single-worker execution — including when
// every run streams through fault injection.
func TestRunAreaParallelEqualsSequential(t *testing.T) {
	spec := deploy.AreasFor("OPA")[0]
	rates := faults.Profile(0.05)
	cases := []struct {
		name  string
		rates *faults.Rates
	}{
		{"clean", nil},
		{"faulted", &rates},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Seed: 42, Duration: 90 * time.Second, RunScale: 0.25, FaultRates: tc.rates}
			par := runOneArea(t, spec, opts)
			opts.Workers = 1
			seq := runOneArea(t, spec, opts)
			if len(par.Records) != len(seq.Records) {
				t.Fatalf("parallel produced %d records, sequential %d", len(par.Records), len(seq.Records))
			}
			for i := range par.Records {
				if !reflect.DeepEqual(par.Records[i], seq.Records[i]) {
					t.Fatalf("record %d differs between parallel and single-worker execution:\n parallel: %+v\n sequential: %+v",
						i, par.Records[i], seq.Records[i])
				}
			}
		})
	}
}

// TestMetricsParity is the tentpole guarantee of the observability
// layer: attaching a live collector must not change a single bit of the
// study output. The record slices — timelines, loops, salvage reports,
// speeds — must be deeply equal with metrics off and on.
func TestMetricsParity(t *testing.T) {
	spec := deploy.AreasFor("OPT")[1]
	rates := faults.Profile(0.05)
	for _, tc := range []struct {
		name  string
		rates *faults.Rates
	}{
		{"clean", nil},
		{"faulted", &rates},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := Options{Seed: 42, Duration: 60 * time.Second, RunScale: -1, FaultRates: tc.rates}
			plain := runOneArea(t, spec, base)

			observed := base
			reg := obs.NewRegistry()
			observed.Metrics = reg
			withMetrics := runOneArea(t, spec, observed)

			if len(plain.Records) != len(withMetrics.Records) {
				t.Fatalf("record counts differ: %d vs %d", len(plain.Records), len(withMetrics.Records))
			}
			for i := range plain.Records {
				if !reflect.DeepEqual(plain.Records[i], withMetrics.Records[i]) {
					t.Fatalf("record %d differs once metrics are attached:\n off: %+v\n on:  %+v",
						i, plain.Records[i], withMetrics.Records[i])
				}
			}
			// The collector actually observed the area: one campaign.runs
			// increment per record, and the pipeline stages have spans.
			if got := reg.Counter("campaign.runs").Value(); got != int64(len(withMetrics.Records)) {
				t.Errorf("campaign.runs = %d, want %d", got, len(withMetrics.Records))
			}
			label := metricLabel("OPT", spec.ID)
			if got := reg.Counter("campaign.runs" + label).Value(); got != int64(len(withMetrics.Records)) {
				t.Errorf("campaign.runs%s = %d, want %d", label, got, len(withMetrics.Records))
			}
			for _, stage := range []string{"simulate", "extract", "detect", "analyze"} {
				if got := reg.Counter("stage." + stage + ".spans").Value(); got == 0 {
					t.Errorf("stage.%s.spans = 0, want > 0", stage)
				}
			}
			if tc.rates != nil {
				if got := reg.Counter("stage.parse.spans").Value(); got == 0 {
					t.Error("faulted pipeline should record parse spans")
				}
				if got := reg.Counter("sig.lines.read").Value(); got == 0 {
					t.Error("observed parse should count lines read")
				}
			}
		})
	}
}

// TestMetricsPanicCounter: an induced panic inside a run increments
// campaign.panics without changing the retry/failure semantics.
func TestMetricsPanicCounter(t *testing.T) {
	spec := deploy.AreasFor("OPT")[1]
	testHookPanic = func(area string, locIdx, runIdx, attempt int) bool {
		return locIdx == 1 && runIdx == 0 && attempt == 0
	}
	defer func() { testHookPanic = nil }()
	reg := obs.NewRegistry()
	opts := Options{Seed: 42, Duration: 30 * time.Second, RunScale: -1, Metrics: reg}
	res := runOneArea(t, spec, opts)
	if len(res.Records) == 0 {
		t.Fatal("no records")
	}
	if got := reg.Counter("campaign.panics").Value(); got != 1 {
		t.Errorf("campaign.panics = %d, want 1 after an induced first-attempt panic", got)
	}
	if got := reg.Counter("campaign.retries").Value(); got != 1 {
		t.Errorf("campaign.retries = %d, want 1 (the panicked run recovered on retry)", got)
	}
	if got := reg.Counter("campaign.failures").Value(); got != 0 {
		t.Errorf("campaign.failures = %d, want 0", got)
	}
}

// TestRunAreaWithFaultInjection is the end-to-end salvage guarantee: a
// seeded fault profile routed through the campaign completes with
// salvage reports (and possibly failure records) instead of panicking.
func TestRunAreaWithFaultInjection(t *testing.T) {
	rates := faults.Profile(0.05)
	spec := deploy.AreasFor("OPT")[1]
	opts := Options{Seed: 42, Duration: 60 * time.Second, RunScale: -1, FaultRates: &rates}
	res := runOneArea(t, spec, opts)

	if len(res.Records) != 6 {
		t.Fatalf("records = %d, want 6", len(res.Records))
	}
	kept, total := 0, 0
	for _, r := range res.Records {
		if r.Failed() {
			continue // a catastrophically damaged run is allowed to fail
		}
		if r.Salvage == nil {
			t.Fatal("fault-injected record missing its salvage report")
		}
		if r.Timeline == nil {
			t.Fatal("salvaged record missing its timeline")
		}
		kept += r.Salvage.EventsKept
		total += r.Salvage.EventsKept + r.Salvage.RecordsDropped
	}
	if total == 0 || float64(kept)/float64(total) < 0.5 {
		t.Errorf("salvage kept %d/%d recognized records — implausibly low", kept, total)
	}
}
