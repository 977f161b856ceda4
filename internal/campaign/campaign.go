// Package campaign orchestrates the measurement study: it executes
// stationary runs across the 11 test areas exactly the way §4.1
// describes — multiple locations per area, repeated 5-minute bulk
// download runs per location — and keeps per-run records (CS timeline,
// loop analysis, throughput series) that the experiment generators
// aggregate into the paper's tables and figures.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"time"

	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/device"
	"github.com/mssn/loopscope/internal/faults"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/throughput"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/uesim"
)

// MinRunScale is the smallest accepted run scale. Invalid values
// (negative or NaN) are coerced to it rather than silently misbehaving;
// at this scale every location executes exactly one run.
const MinRunScale = 1.0 / (1 << 20)

// DefaultMaxRetries is how often a failed (panicked) run is
// re-attempted with a perturbed seed before its failure record sticks.
const DefaultMaxRetries = 1

// Options scales the study. The zero value gives the full default
// study; tests use reduced RunScale and Duration.
type Options struct {
	// Seed is the study's master seed; everything derives from it.
	Seed int64
	// Duration of each stationary run (default 5 minutes, §4.1).
	Duration time.Duration
	// RunScale multiplies the per-area run counts (default 1.0;
	// negative or NaN values are coerced to MinRunScale).
	RunScale float64
	// Device is the test phone (default OnePlus 12R).
	Device *device.Profile
	// KeepSpeeds records the per-second throughput series (needed for
	// Fig. 1b/11; off by default to keep memory flat).
	KeepSpeeds bool
	// FaultRates, when non-nil, routes every run's capture through a
	// seeded faults.Injector and the salvage pipeline: the run is
	// emitted as capture text, corrupted in flight and re-parsed with a
	// lenient sig.ParseTo into the same timeline builder a clean run
	// feeds, so it is analyzed from whatever survived, mirroring how
	// real damaged captures are ingested. Each record carries its
	// Salvage report.
	FaultRates *faults.Rates
	// Workers bounds the one Sweep pool that the study's areas,
	// DenseStudy and the experiment generators run their simulations
	// on. 0 means one worker per CPU. Record order and content, dense
	// points and generator output are identical at any worker count.
	Workers int
	// Checkpoint, when non-empty, is the path of the durable run
	// journal (see internal/checkpoint and docs/RESILIENCE.md): every
	// completed run appends one checksummed entry keyed by its
	// deterministic identity, and a later Resume replays the journal to
	// skip finished runs. RunContext refuses a journal that already
	// holds runs, so two studies cannot silently interleave into one
	// file.
	Checkpoint string
	// Sink, when non-nil, additionally receives every completed record
	// in deterministic order as the study executes (see Sink).
	Sink Sink
	// CrashAfter, when positive, kills the engine deterministically
	// right after the N-th checkpoint append: the journal keeps
	// exactly N entries, in-flight runs are cancelled, and RunContext
	// returns ErrInjectedCrash. This is the crashtest harness's fault
	// point; production runs leave it zero.
	CrashAfter int
	// Metrics, when non-nil, receives stage spans and run counters
	// (runs, retries, panics, salvaged runs — in total and per
	// operator/area). Pure observation: records, goldens and experiment
	// output are byte-identical with or without a collector; the
	// parity test enforces this.
	Metrics obs.Collector
}

// withDefaults fills in the zero values.
func (o Options) withDefaults() Options {
	if o.Duration == 0 {
		o.Duration = 5 * time.Minute
	}
	if o.RunScale < 0 || math.IsNaN(o.RunScale) {
		o.RunScale = MinRunScale
	}
	//lint:ignore loopvet/floatcmp zero is the Options not-set sentinel, assigned verbatim and never computed
	if o.RunScale == 0 {
		o.RunScale = 1
	}
	if o.Device == nil {
		o.Device = device.OnePlus12R()
	}
	return o
}

// Record is one stationary run's outcome.
type Record struct {
	Op       string
	Area     string
	City     string
	LocIndex int
	RunIndex int
	Device   string
	Arch     deploy.Archetype

	Timeline  *trace.Timeline
	Analysis  core.Analysis
	Speeds    []throughput.Sample
	MeasCount int // individual RSRP/RSRQ values reported (Table 3)

	// Salvage reports what lenient parsing recovered when the run's
	// capture went through fault injection (nil otherwise).
	Salvage *sig.Salvage
	// Err and Stack describe a run that failed instead of completing;
	// such a failure record keeps the study alive and countable. Stack
	// is only set for panics.
	Err   string
	Stack string
	// FailKind classifies the failure carried by Err (panic or
	// cancellation); FailNone for successful runs.
	FailKind FailureKind
	// Attempts is how many executions this record took (1 for a clean
	// first run; retries increment it).
	Attempts int
}

// FailureKind is the closed taxonomy of run failures. Only panics are
// retried; a cancelled run belongs to a study that is shutting down.
// The values are the record wire encoding (fail_kind), so they never
// move.
type FailureKind uint8

const (
	// FailNone marks a successful run.
	FailNone FailureKind = iota
	// FailPanic marks a run that panicked; Stack holds the trace.
	FailPanic
	// 2 is reserved so that FailCancelled keeps its wire value.
	_
	// FailCancelled marks a run aborted by study cancellation; such
	// records are never checkpointed or delivered to sinks, so a
	// resumed study re-executes them.
	FailCancelled
)

// String names the failure kind for counters and reports.
func (k FailureKind) String() string {
	switch k {
	case FailNone:
		return "none"
	case FailPanic:
		return "panic"
	case FailCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("FailureKind(%d)", uint8(k))
	}
}

// HasLoop reports whether the run contained an ON-OFF loop.
func (r *Record) HasLoop() bool { return r.Analysis.HasLoop() }

// Failed reports whether the run panicked and carries no analysis.
func (r *Record) Failed() bool { return r.Err != "" }

// Form returns the run's sequence form (Fig. 4). A run is persistent
// when it *ends* inside a loop, so the last detected loop's form
// decides: a run that briefly left a loop and re-entered it still ends
// in the loop.
func (r *Record) Form() core.Form {
	if !r.HasLoop() {
		return core.FormNoLoop
	}
	return r.Analysis.Loops[len(r.Analysis.Loops)-1].Form
}

// Subtype returns the primary loop's sub-type (SubtypeUnknown if none).
func (r *Record) Subtype() core.Subtype {
	_, st := r.Analysis.Primary()
	return st
}

// AreaResult bundles one area's deployment and run records.
type AreaResult struct {
	Spec    deploy.AreaSpec
	Dep     *deploy.Deployment
	Records []*Record
}

// LocationRecords groups the area's records by location index.
func (a *AreaResult) LocationRecords() [][]*Record {
	out := make([][]*Record, len(a.Dep.Clusters))
	for _, r := range a.Records {
		out[r.LocIndex] = append(out[r.LocIndex], r)
	}
	return out
}

// LoopLikelihood returns the per-location loop likelihood (Fig. 8).
// Failed runs are excluded from the denominator: a crashed capture is
// missing data, not a no-loop observation.
func (a *AreaResult) LoopLikelihood() []float64 {
	locs := a.LocationRecords()
	out := make([]float64, len(locs))
	for i, recs := range locs {
		n, ok := 0, 0
		for _, r := range recs {
			if r.Failed() {
				continue
			}
			ok++
			if r.HasLoop() {
				n++
			}
		}
		if ok > 0 {
			out[i] = float64(n) / float64(ok)
		}
	}
	return out
}

// Failures counts the area's runs that ended in a failure record.
func (a *AreaResult) Failures() int {
	n := 0
	for _, r := range a.Records {
		if r.Failed() {
			n++
		}
	}
	return n
}

// Study is the full multi-operator dataset.
type Study struct {
	Opts  Options
	Areas []*AreaResult
}

// Run executes the full study over all areas of all three operators.
// It is RunContext under a background context; because that context
// never cancels, an error is only possible from a misconfigured
// checkpoint or sink, and Run panics on it — callers wiring those
// options use RunContext.
func Run(opts Options) *Study {
	st, err := RunContext(context.Background(), opts)
	if err != nil {
		panic(fmt.Sprintf("campaign.Run: %v (use RunContext to handle engine errors)", err))
	}
	return st
}

// ExecuteRun performs a single run under ctx and post-processes it
// through the full analysis pipeline. A run that panics does not tear
// down the study: the panic is captured into a failure Record (with
// error and stack), and the run is retried up to DefaultMaxRetries
// times with a perturbed seed before the failure sticks. Cancellation
// is final and never retried; a retry under a cancelled study aborts
// before its first event, so the record is cancelled rather than the
// interim panic, which must not be checkpointed as final.
func ExecuteRun(ctx context.Context, op *policy.Operator, dep *deploy.Deployment,
	cl *deploy.Cluster, locIdx, runIdx int, opts Options) *Record {
	opts = opts.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	rec := runOnce(ctx, op, dep, cl, locIdx, runIdx, 0, opts)
	for attempt := 1; rec.FailKind == FailPanic && attempt <= DefaultMaxRetries; attempt++ {
		retry := runOnce(ctx, op, dep, cl, locIdx, runIdx, attempt, opts)
		retry.Attempts = attempt + 1
		rec = retry
	}
	if c := opts.Metrics; c != nil {
		label := metricLabel(op.Name, dep.Area.ID)
		c.Add("campaign.runs", 1)
		c.Add("campaign.runs"+label, 1)
		if n := int64(rec.Attempts - 1); n > 0 {
			c.Add("campaign.retries", n)
			c.Add("campaign.retries"+label, n)
		}
		if rec.Failed() {
			c.Add("campaign.failures", 1)
			c.Add("campaign.failures"+label, 1)
		}
		switch rec.FailKind {
		case FailNone:
		case FailPanic, FailCancelled:
			c.Add("campaign.failures."+rec.FailKind.String(), 1)
			c.Add("campaign.failures."+rec.FailKind.String()+label, 1)
		}
		if rec.Salvage != nil && !rec.Salvage.Clean() {
			c.Add("campaign.salvaged_runs", 1)
			c.Add("campaign.salvaged_runs"+label, 1)
		}
	}
	return rec
}

// metricLabel renders the per-operator/area counter suffix, e.g.
// "{op=OPT,area=A1}".
func metricLabel(op, area string) string {
	return "{op=" + op + ",area=" + area + "}"
}

// startStage opens a stage span on c, tolerating a disabled collector.
func startStage(c obs.Collector, s obs.Stage) func() {
	if c == nil {
		return func() {}
	}
	return c.StartStage(s)
}

// testHookPanic, when set by a test, forces a run attempt to panic —
// the only way to exercise the recovery path deterministically.
var testHookPanic func(area string, locIdx, runIdx, attempt int) bool

// runOnce executes one attempt of a run under panic isolation and the
// study context. A context abort surfaces as a FailCancelled record,
// not a panic.
func runOnce(ctx context.Context, op *policy.Operator, dep *deploy.Deployment, cl *deploy.Cluster,
	locIdx, runIdx, attempt int, opts Options) (rec *Record) {
	rec = &Record{
		Op:       op.Name,
		Area:     dep.Area.ID,
		City:     dep.Area.City,
		LocIndex: locIdx,
		RunIndex: runIdx,
		Device:   opts.Device.Name,
		Arch:     cl.Arch,
		Attempts: 1,
	}
	defer func() {
		if p := recover(); p != nil {
			rec.Err = fmt.Sprint(p)
			rec.Stack = string(debug.Stack())
			rec.FailKind = FailPanic
			rec.clearOutputs()
			if c := opts.Metrics; c != nil {
				c.Add("campaign.panics", 1)
				c.Add("campaign.panics"+metricLabel(op.Name, dep.Area.ID), 1)
			}
		}
	}()
	if testHookPanic != nil && testHookPanic(dep.Area.ID, locIdx, runIdx, attempt) {
		panic("injected test failure")
	}
	// Retries perturb the seed so a deterministic crash input is not
	// replayed verbatim.
	seed := opts.Seed*1_000_003 + int64(locIdx)*7919 + int64(runIdx)*104729 +
		int64(deployHash(dep.Area.ID)) + int64(attempt)*1_000_000_007
	cfg := uesim.Config{
		Op:       op,
		Field:    dep.Field,
		Cluster:  cl,
		Device:   opts.Device,
		Duration: opts.Duration,
		Seed:     seed,
		Metrics:  opts.Metrics,
	}
	// Every run feeds one sink, whatever its event source: extraction
	// folds events into the timeline as they arrive, so no event log is
	// ever materialized and clean and faulted records share every line
	// from Finish onward.
	sink := &runSink{tb: trace.NewBuilder()}
	var abort error
	if opts.FaultRates != nil {
		// Stream the run end-to-end: the simulator emits into a pipe,
		// the injector corrupts records in flight, and lenient parsing
		// consumes the other end into the run sink — the capture text is
		// never materialized. A simulator panic is ferried back and
		// re-raised here so the failure-record machinery above still
		// sees it; a context abort is ferried the same way and the pipe
		// is closed with its error so the parser unblocks.
		// The simulate and parse spans overlap by construction: the
		// emitter blocks on the pipe while the parser drains it, so
		// each span measures its stage's wall-clock window, not
		// exclusive CPU time (see docs/OBSERVABILITY.md).
		inj := faults.New(seed+2, *opts.FaultRates).WithCollector(opts.Metrics)
		pr, pw := io.Pipe()
		panicked := make(chan any, 1)
		aborted := make(chan error, 1)
		go func() {
			defer close(panicked)
			defer func() {
				if p := recover(); p != nil {
					panicked <- p
					pw.CloseWithError(io.ErrUnexpectedEOF) // unblock the parser
				}
			}()
			endSim := startStage(opts.Metrics, obs.StageSimulate)
			em := sig.NewEmitter(pw)
			if err := uesim.RunToContext(ctx, cfg, em); err != nil {
				aborted <- err
				pw.CloseWithError(err)
				return
			}
			endSim()
			pw.CloseWithError(em.Close())
		}()
		endParse := startStage(opts.Metrics, obs.StageParse)
		sal, err := sig.ParseTo(inj.Reader(pr), sink, sig.ParseOptions{Lenient: true, Metrics: opts.Metrics})
		endParse()
		if p, ok := <-panicked; ok {
			panic(p)
		}
		select {
		case abort = <-aborted:
		default:
			if err != nil {
				panic(err) // pipe error without a writer panic; recovered above
			}
		}
		rec.Salvage = normalizeSalvage(sal)
	} else {
		endSim := startStage(opts.Metrics, obs.StageSimulate)
		abort = uesim.RunToContext(ctx, cfg, sink)
		endSim()
	}
	if abort != nil {
		rec.Err = abort.Error()
		rec.FailKind = FailCancelled
		rec.clearOutputs()
		return rec
	}
	endExtract := startStage(opts.Metrics, obs.StageExtract)
	tl := sink.tb.Finish()
	endExtract()
	rec.Timeline = tl
	endDetect := startStage(opts.Metrics, obs.StageDetect)
	rec.Analysis = core.Analyze(tl)
	endDetect()
	endAnalyze := startStage(opts.Metrics, obs.StageAnalyze)
	rec.MeasCount = sink.meas
	if opts.KeepSpeeds {
		rec.Speeds = throughput.Generate(tl, op, seed+1)
	}
	endAnalyze()
	return rec
}

// runSink is what a run's events feed, clean or faulted: the timeline
// builder, plus the count of measurement-report entries the record
// carries as MeasCount.
type runSink struct {
	tb   *trace.Builder
	meas int
}

// Append implements sig.Sink.
//
//loopvet:hot
func (s *runSink) Append(at time.Duration, m rrc.Message) {
	if mr, ok := m.(rrc.MeasReport); ok {
		s.meas += len(mr.Entries)
	}
	s.tb.Append(at, m)
}

// clearOutputs drops whatever a failed attempt produced, so a failure
// record carries only its identity and failure fields.
func (r *Record) clearOutputs() {
	r.Timeline, r.Analysis, r.Speeds, r.MeasCount, r.Salvage = nil, core.Analysis{}, nil, 0, nil
}

// normalizeSalvage flattens each quarantine cause to a plain
// errors.New of its message. The parser surfaces concrete error types
// (strconv.NumError and friends) that the record codec cannot
// reconstruct; records must be wire-stable from birth so a resumed
// study is deep-equal to an uninterrupted one. The rendered text is
// unchanged — only the dynamic type is.
func normalizeSalvage(sal *sig.Salvage) *sig.Salvage {
	if sal == nil {
		return nil
	}
	for _, pe := range sal.Errors {
		pe.Err = errors.New(pe.Err.Error())
	}
	return sal
}

// deployHash distinguishes run seeds across areas.
func deployHash(id string) int {
	h := 0
	for _, c := range id {
		h = h*31 + int(c)
	}
	return h
}

// Records returns all records, optionally filtered by operator name
// ("" for all).
func (s *Study) Records(op string) []*Record {
	var out []*Record
	for _, a := range s.Areas {
		if op != "" && a.Spec.Operator != op {
			continue
		}
		out = append(out, a.Records...)
	}
	return out
}

// AreaByID returns one area's results.
func (s *Study) AreaByID(id string) *AreaResult {
	for _, a := range s.Areas {
		if a.Spec.ID == id {
			return a
		}
	}
	return nil
}

// Failures counts runs across the study that ended in failure records.
func (s *Study) Failures() int {
	n := 0
	for _, a := range s.Areas {
		n += a.Failures()
	}
	return n
}

// FormCounts tallies sequence forms for an operator (Fig. 6). Failed
// runs carry no sequence and are not counted.
func (s *Study) FormCounts(op string) map[core.Form]int {
	out := map[core.Form]int{}
	for _, r := range s.Records(op) {
		if r.Failed() {
			continue
		}
		out[r.Form()]++
	}
	return out
}

// SubtypeCounts tallies loop sub-types for an operator or area. Failed
// runs never report loops, so they naturally drop out.
func SubtypeCounts(records []*Record) map[core.Subtype]int {
	out := map[core.Subtype]int{}
	for _, r := range records {
		if !r.Failed() && r.HasLoop() {
			out[r.Subtype()]++
		}
	}
	return out
}

// LoopInstances returns every detected loop across records.
func LoopInstances(records []*Record) []*core.Loop {
	var out []*core.Loop
	for _, r := range records {
		out = append(out, r.Analysis.Loops...)
	}
	return out
}
