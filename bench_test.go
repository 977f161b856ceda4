// Benchmarks regenerating every table and figure of the paper, plus
// micro-benchmarks of the pipeline stages. Each experiment benchmark
// shares one lazily-built study context per benchmark function: the
// first iteration pays for the dataset, later iterations measure the
// aggregation, which is the quantity that scales with dataset size.
//
// Run them all with:
//
//	go test -bench=. -benchmem
package loopscope_test

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/mssn/loopscope"
	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/experiments"
	"github.com/mssn/loopscope/internal/faults"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/throughput"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/uesim"
	"github.com/mssn/loopscope/internal/units"
)

// benchOpts keeps the shared benchmark dataset at a tractable size
// while exercising every code path of the full study.
func benchOpts() campaign.Options {
	return campaign.Options{Seed: 42, Duration: 2 * time.Minute, RunScale: 0.4}
}

// benchExperiment runs one table/figure generator b.N times over a
// shared context. These build full study datasets, so the CI smoke run
// (-short -benchtime=1x) skips them.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	if testing.Short() {
		b.Skip("full-study benchmark in -short mode")
	}
	ctx := experiments.NewContext(benchOpts())
	g, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	g.Run(ctx) // warm the shared datasets outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := g.Run(ctx)
		if len(res.Lines) == 0 {
			b.Fatalf("%s produced no output", id)
		}
	}
}

// One benchmark per paper table and figure (DESIGN.md's experiment
// index).
func BenchmarkFig1b(b *testing.B)  { benchExperiment(b, "fig1b") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)  { benchExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)  { benchExperiment(b, "fig21") }
func BenchmarkFig22(b *testing.B)  { benchExperiment(b, "fig22") }

// --- pipeline micro-benchmarks ---

// benchRunSetup builds a deployment and one looping cluster.
func benchRunSetup(b *testing.B) (op *policy.Operator, dep *deploy.Deployment, cl *deploy.Cluster) {
	b.Helper()
	op = policy.OPT()
	dep = deploy.Build(op, deploy.AreasFor("OPT")[0], 43)
	cl = campaign.FindShowcase(dep)
	if cl == nil {
		cl = dep.Clusters[0]
	}
	return
}

// BenchmarkSimulateRun measures one full 5-minute stationary SA run at
// the showcase S1E3 site.
func BenchmarkSimulateRun(b *testing.B) {
	op, dep, cl := benchRunSetup(b)
	benchSimulate(b, uesim.Config{Op: op, Field: dep.Field, Cluster: cl,
		Duration: 5 * time.Minute, Seed: 7})
}

// BenchmarkSimulateRunNSA is BenchmarkSimulateRun's NSA twin: one
// 5-minute stationary run at an OPV N2E2 site.
func BenchmarkSimulateRunNSA(b *testing.B) {
	op := policy.OPV()
	area, _ := deploy.AreaByID("A11")
	dep := deploy.Build(op, area, 43)
	var cl *deploy.Cluster
	for _, c := range dep.Clusters {
		if c.Arch == deploy.ArchN2E2 {
			cl = c
			break
		}
	}
	if cl == nil {
		b.Fatal("no N2E2 site in A11")
	}
	benchSimulate(b, uesim.Config{Op: op, Field: dep.Field, Cluster: cl,
		Duration: 5 * time.Minute, Seed: 7})
}

// benchSimulate runs cfg b.N times. Every iteration replays the same
// seed, so allocs/op is exact and bench-compare can gate it with zero
// tolerance; simulated minutes per second are reported beside ns/op.
func benchSimulate(b *testing.B, cfg uesim.Config) {
	b.Helper()
	want := uesim.Run(cfg).Log.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := uesim.Run(cfg).Log.Len(); got != want {
			b.Fatalf("run emitted %d events, first run %d", got, want)
		}
	}
	b.ReportMetric(cfg.Duration.Minutes()*float64(b.N)/b.Elapsed().Seconds(), "sim-min/s")
}

// BenchmarkEmitParse measures the signaling-log text round trip.
func BenchmarkEmitParse(b *testing.B) {
	op, dep, cl := benchRunSetup(b)
	res := uesim.Run(uesim.Config{Op: op, Field: dep.Field, Cluster: cl,
		Duration: 5 * time.Minute, Seed: 7})
	text := res.Log.String()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchParse(strings.NewReader(text), sig.ParseOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchParse is the parse step of the parse benchmarks: ParseTo into a
// fresh Log sized as Parse sizes its own.
func benchParse(r io.Reader, opts sig.ParseOptions) error {
	_, err := sig.ParseTo(r, &sig.Log{Events: make([]sig.Event, 0, 256)}, opts)
	return err
}

// benchLog simulates one showcase run for the emit/parse benchmarks.
func benchLog(b *testing.B) *sig.Log {
	b.Helper()
	op, dep, cl := benchRunSetup(b)
	return uesim.Run(uesim.Config{Op: op, Field: dep.Field, Cluster: cl,
		Duration: 5 * time.Minute, Seed: 7}).Log
}

// BenchmarkEmit measures event-at-a-time rendering of a full capture.
func BenchmarkEmit(b *testing.B) {
	log := benchLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := log.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStringParse is the pre-streaming pipeline shape: materialize
// the capture text, then re-parse it. The baseline BenchmarkStreamParse
// is measured against.
func BenchmarkStringParse(b *testing.B) {
	log := benchLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchParse(strings.NewReader(log.String()), sig.ParseOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamParse is the streaming pipeline shape: events flow
// through an Emitter and a pipe into the parser; the capture text is
// never materialized.
func BenchmarkStreamParse(b *testing.B) {
	log := benchLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, pw := io.Pipe()
		go func() {
			em := sig.NewEmitter(pw)
			for _, ev := range log.Events {
				if em.Emit(ev.At, ev.Msg) != nil {
					break
				}
			}
			pw.CloseWithError(em.Close())
		}()
		if err := benchParse(pr, sig.ParseOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamParseObserved is BenchmarkStreamParse with a live
// metrics registry attached, guarding the observability overhead: the
// collector flushes a handful of counters once per parse, so its B/op
// must stay within a whisker of the unobserved baseline.
func BenchmarkStreamParseObserved(b *testing.B) {
	log := benchLog(b)
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, pw := io.Pipe()
		go func() {
			em := sig.NewEmitter(pw)
			for _, ev := range log.Events {
				if em.Emit(ev.At, ev.Msg) != nil {
					break
				}
			}
			pw.CloseWithError(em.Close())
		}()
		if err := benchParse(pr, sig.ParseOptions{Metrics: reg}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseReuse measures the pooled parser's steady state: one
// materialized capture parsed back-to-back, so every iteration after
// the first reuses the pooled arena, scratch buffers and interning
// tables. This is the path whose allocs/op the zero-allocation rework
// pins — regressions here mean the pool stopped being reused.
func BenchmarkParseReuse(b *testing.B) {
	log := benchLog(b)
	data := []byte(log.String())
	rd := bytes.NewReader(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(data)
		if err := benchParse(rd, sig.ParseOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorrupt measures the fault injector alone: the fixed capture
// streamed through one fixed-seed injector at the robustness profile.
// The seed never changes, so allocs/op is exact.
func BenchmarkCorrupt(b *testing.B) {
	text := benchLog(b).String()
	rates := faults.Profile(0.05)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj := faults.New(7919, rates)
		if _, err := io.Copy(io.Discard, inj.Reader(strings.NewReader(text))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStringCorruptParse: the pre-streaming fault path — emit to a
// string, corrupt the whole string, lenient-reparse.
func BenchmarkStringCorruptParse(b *testing.B) {
	log := benchLog(b)
	rates := faults.Profile(0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj := faults.New(int64(i), rates)
		if err := benchParse(strings.NewReader(inj.Corrupt(log.String())), sig.ParseOptions{Lenient: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamCorruptParse: the streamed fault path campaign.runOnce
// uses — corruption happens in flight between emitter and parser.
func BenchmarkStreamCorruptParse(b *testing.B) {
	log := benchLog(b)
	rates := faults.Profile(0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj := faults.New(int64(i), rates)
		pr, pw := io.Pipe()
		go func() {
			em := sig.NewEmitter(pw)
			for _, ev := range log.Events {
				if em.Emit(ev.At, ev.Msg) != nil {
					break
				}
			}
			pw.CloseWithError(em.Close())
		}()
		if err := benchParse(inj.Reader(pr), sig.ParseOptions{Lenient: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtract measures CS-timeline extraction from a parsed log.
func BenchmarkExtract(b *testing.B) {
	op, dep, cl := benchRunSetup(b)
	res := uesim.Run(uesim.Config{Op: op, Field: dep.Field, Cluster: cl,
		Duration: 5 * time.Minute, Seed: 7})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.FromLog(res.Log)
	}
}

// BenchmarkDetectClassify measures loop detection plus classification.
func BenchmarkDetectClassify(b *testing.B) {
	op, dep, cl := benchRunSetup(b)
	res := uesim.Run(uesim.Config{Op: op, Field: dep.Field, Cluster: cl,
		Duration: 5 * time.Minute, Seed: 7})
	tl := trace.FromLog(res.Log)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Analyze(tl)
	}
}

// BenchmarkStreamDetect measures incremental loop detection: every
// timeline step pushed through a fresh stream detector plus the flush
// that finalizes forms — the work `-follow` and the fused campaign
// detect stage add on top of extraction.
func BenchmarkStreamDetect(b *testing.B) {
	op, dep, cl := benchRunSetup(b)
	res := uesim.Run(uesim.Config{Op: op, Field: dep.Field, Cluster: cl,
		Duration: 5 * time.Minute, Seed: 7})
	tl := trace.FromLog(res.Log)
	want := len(core.DetectAll(tl))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sd := core.NewStreamDetector(core.StreamConfig{})
		for _, s := range tl.Steps {
			sd.Push(s)
		}
		if got := len(sd.Flush(tl.Duration)); got != want {
			b.Fatalf("stream found %d loops, batch %d", got, want)
		}
	}
}

// BenchmarkThroughput measures the speed-series generator.
func BenchmarkThroughput(b *testing.B) {
	op, dep, cl := benchRunSetup(b)
	res := uesim.Run(uesim.Config{Op: op, Field: dep.Field, Cluster: cl,
		Duration: 5 * time.Minute, Seed: 7})
	tl := trace.FromLog(res.Log)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		throughput.Generate(tl, op, int64(i))
	}
}

// BenchmarkFitModel measures §6 model training on a synthetic set.
func BenchmarkFitModel(b *testing.B) {
	truth := &core.Model{K: 0.6, T: 10, N: 2, Feature: core.FeatureSCellGap}
	var samples []core.Sample
	for i := 0; i < 49; i++ {
		c := core.Combo{PCellGapDB: units.DB(i%14 - 7), SCellGapDB: units.DB(i % 12)}
		samples = append(samples, core.Sample{Combos: []core.Combo{c}, Truth: truth.Predict([]core.Combo{c})})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Fit(samples, core.FeatureSCellGap)
	}
}

// BenchmarkFullStudy measures the entire sparse measurement campaign at
// benchmark scale (all 11 areas, every run analyzed).
func BenchmarkFullStudy(b *testing.B) {
	if testing.Short() {
		b.Skip("full-study benchmark in -short mode")
	}
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(42 + i)
		st := campaign.Run(opts)
		if len(st.Areas) != 11 {
			b.Fatal("study incomplete")
		}
	}
}

// BenchmarkDenseStudy measures the fine-grained spatial grids — the
// Fig. 20 showcase grid and the S1E1/S1E2 grids — from a cold context,
// so every iteration pays for the whole sweep that benchExperiment
// warms outside its timer.
func BenchmarkDenseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOpts())
		if pts, _, _ := ctx.Dense(); len(pts) == 0 || len(ctx.DenseS1()) == 0 {
			b.Fatal("empty dense grid")
		}
	}
}

// BenchmarkPublicAPI exercises the facade end to end the way a
// downstream user would.
func BenchmarkPublicAPI(b *testing.B) {
	op := loopscope.OperatorByName("OPT")
	dep := loopscope.BuildDeployment(op, loopscope.Areas()[0], 43)
	for i := 0; i < b.N; i++ {
		res := loopscope.SimulateRun(loopscope.RunConfig{
			Op: op, Field: dep.Field, Cluster: dep.Clusters[0],
			Duration: time.Minute, Seed: int64(i)})
		parsed, err := loopscope.ParseLogString(res.Log.String())
		if err != nil {
			b.Fatal(err)
		}
		loopscope.Analyze(loopscope.ExtractTimeline(parsed))
	}
}

// Extension experiments (beyond the paper's figures).
func BenchmarkF12Regression(b *testing.B)      { benchExperiment(b, "f12") }
func BenchmarkWalkExperiment(b *testing.B)     { benchExperiment(b, "walk") }
func BenchmarkAppsExperiment(b *testing.B)     { benchExperiment(b, "apps") }
func BenchmarkMitigationStudy(b *testing.B)    { benchExperiment(b, "mitigation") }
func BenchmarkStickinessAblation(b *testing.B) { benchExperiment(b, "ablation-sticky") }
