package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/mssn/loopscope/internal/checkpoint"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/faults"
	"github.com/mssn/loopscope/internal/policy"
)

// ErrInjectedCrash is returned by the engine when Options.CrashAfter
// fires — the crashtest harness's stand-in for a hard kill.
var ErrInjectedCrash = errors.New("campaign: injected crash after checkpoint append")

// metaKey is the journal key of the options-fingerprint header entry.
const metaKey = "meta/options"

// optsFingerprint pins the output-affecting options into the journal
// header, so a journal can never be resumed under options that would
// produce different records. MaxRetries is the DefaultMaxRetries
// constant; it stays in the header so existing journals still match.
type optsFingerprint struct {
	Seed       int64         `json:"seed"`
	Duration   time.Duration `json:"duration"`
	RunScale   float64       `json:"run_scale"`
	Device     string        `json:"device"`
	KeepSpeeds bool          `json:"keep_speeds"`
	Faults     *faults.Rates `json:"faults"`
	MaxRetries int           `json:"max_retries"`
}

// fingerprint derives the journal header from withDefaults-applied
// options.
func fingerprint(opts Options) optsFingerprint {
	return optsFingerprint{
		Seed:       opts.Seed,
		Duration:   opts.Duration,
		RunScale:   opts.RunScale,
		Device:     opts.Device.Name,
		KeepSpeeds: opts.KeepSpeeds,
		Faults:     opts.FaultRates,
		MaxRetries: DefaultMaxRetries,
	}
}

// runKey is the deterministic identity of one run: operator, area,
// location index, run index and the study's master seed.
func runKey(op, area string, locIdx, runIdx int, seed int64) string {
	return fmt.Sprintf("%s/%s/%d/%d/%d", op, area, locIdx, runIdx, seed)
}

// runner is the per-study engine state shared by the areas: the
// checkpoint journal with its replay map, the sink, and the crash
// fault point. The study context is not stored here — it is threaded
// through runArea/executeJob as a parameter, so every call site states
// which cancellation scope it runs under.
type runner struct {
	cancel context.CancelCauseFunc
	opts   Options
	resume bool // a populated journal may be replayed
	jr     *checkpoint.Journal
	done   map[string]*Record // journal replay: run key → decoded record

	mu          sync.Mutex
	appended    int   // guarded by: mu — checkpoint record appends (header excluded)
	crashed     bool  // guarded by: mu — CrashAfter fired: simulate death, stop persisting
	stopDeliver bool  // guarded by: mu — delivery fence after crash/cancel/sink error
	failErr     error // guarded by: mu — first journal or sink error
}

// fail records the first engine error and cancels the study.
//
// locks: mu
func (r *runner) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failLocked(err)
}

// failLocked is fail for callers already holding r.mu.
//
// requires: mu
func (r *runner) failLocked(err error) {
	if r.failErr == nil {
		r.failErr = err
	}
	r.stopDeliver = true
	r.cancel(err)
}

// err returns the engine's terminal error: a journal/sink failure, the
// injected crash, or the (possibly parent) context cancellation.
//
// locks: mu
func (r *runner) err(ctx context.Context) error {
	r.mu.Lock()
	failErr := r.failErr
	r.mu.Unlock()
	if failErr != nil {
		return failErr
	}
	if err := context.Cause(ctx); err != nil {
		return err
	}
	return nil
}

// openJournal opens and replays the checkpoint journal when one is
// configured, enforcing the Resume contract and the options
// fingerprint.
func (r *runner) openJournal() (*checkpoint.Salvage, error) {
	if r.opts.Checkpoint == "" {
		if r.resume {
			return nil, errors.New("campaign: resume needs the path of the checkpoint journal to replay")
		}
		return nil, nil
	}
	jr, entries, sal, err := checkpoint.Open(r.opts.Checkpoint)
	if err != nil {
		return nil, err
	}
	fp := fingerprint(r.opts)
	// failClosing folds the journal's close error into the path error:
	// a close failure on a journal we are abandoning is still a report
	// about durability the caller must see.
	failClosing := func(err error) error { return errors.Join(err, jr.Close()) }
	if len(entries) == 0 {
		if err := jr.Append(metaKey, fp); err != nil {
			return nil, failClosing(err)
		}
		r.jr = jr
		return sal, nil
	}
	if !r.resume {
		return nil, failClosing(fmt.Errorf("campaign: checkpoint journal %s already holds %d entries; continue it with Resume (flag -resume), or remove the file",
			r.opts.Checkpoint, len(entries)))
	}
	if entries[0].Key != metaKey {
		return nil, failClosing(fmt.Errorf("campaign: checkpoint journal %s has no options header; refusing to resume", r.opts.Checkpoint))
	}
	var have optsFingerprint
	if err := json.Unmarshal(entries[0].Payload, &have); err != nil {
		return nil, failClosing(fmt.Errorf("campaign: checkpoint journal %s: bad options header: %w", r.opts.Checkpoint, err))
	}
	if hb, _ := json.Marshal(have); string(hb) != mustJSON(fp) {
		return nil, failClosing(fmt.Errorf("campaign: checkpoint journal %s was written by a different study (journal %s, resume %s)",
			r.opts.Checkpoint, mustJSON(have), mustJSON(fp)))
	}
	r.done = make(map[string]*Record, len(entries)-1)
	for _, e := range entries[1:] {
		rec, err := DecodeRecord(e.Payload)
		if err != nil {
			return nil, failClosing(fmt.Errorf("campaign: checkpoint journal %s: entry %q: %w", r.opts.Checkpoint, e.Key, err))
		}
		r.done[e.Key] = rec // duplicates: last entry wins, like the write order
	}
	if c := r.opts.Metrics; c != nil && !sal.Clean() {
		c.Add("campaign.checkpoint.salvaged_lines", int64(sal.LinesDropped))
	}
	r.jr = jr
	return sal, nil
}

// mustJSON renders v for fingerprint comparison and error messages.
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%+v", v)
	}
	return string(b)
}

// delivery is a per-area reorder window: records complete in any order
// on the worker pool but the sink must observe slot order.
type delivery struct {
	next    int
	pending map[int]*deliveryItem
}

type deliveryItem struct {
	key string
	rec *Record
}

// complete files one finished run: it is checkpointed immediately (in
// completion order — the keyed replay makes order irrelevant) and
// delivered to the sink in slot order through the reorder window.
//
// locks: mu
func (r *runner) complete(d *delivery, slot int, key string, rec *Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec.FailKind != FailCancelled && r.jr != nil && !r.crashed && r.failErr == nil {
		if _, already := r.done[key]; !already {
			if err := r.appendLocked(key, rec); err != nil {
				r.failLocked(err)
				return
			}
		}
	}
	if r.stopDeliver || r.opts.Sink == nil {
		return
	}
	if d.pending == nil {
		d.pending = make(map[int]*deliveryItem)
	}
	d.pending[slot] = &deliveryItem{key: key, rec: rec}
	for {
		it, ok := d.pending[d.next]
		if !ok {
			return
		}
		delete(d.pending, d.next)
		if it.rec.FailKind == FailCancelled {
			// A cancelled run has no durable result; everything after
			// it in the stream is withheld so the sink output stays a
			// clean prefix the resumed study will regenerate.
			r.stopDeliver = true
			return
		}
		if err := r.opts.Sink.Record(it.rec); err != nil {
			r.failLocked(fmt.Errorf("campaign: sink: %w", err))
			return
		}
		d.next++
	}
}

// appendLocked persists one record and drives the CrashAfter fault
// point. Callers hold r.mu.
//
// requires: mu
func (r *runner) appendLocked(key string, rec *Record) error {
	b, err := EncodeRecord(rec)
	if err != nil {
		return err
	}
	if err := r.jr.Append(key, json.RawMessage(b)); err != nil {
		return err
	}
	if c := r.opts.Metrics; c != nil {
		c.Add("campaign.runs.checkpointed", 1)
	}
	r.appended++
	if r.opts.CrashAfter > 0 && r.appended >= r.opts.CrashAfter && !r.crashed {
		r.crashed = true
		r.stopDeliver = true
		r.cancel(ErrInjectedCrash)
		r.failErr = ErrInjectedCrash
	}
	return nil
}

// runArea executes all runs of one area on the Sweep pool. Runs are
// independent (each derives its own seed), and the records come back
// in slot order — locations in order, run index in order — so every
// downstream aggregate is identical to a sequential execution. Once
// ctx is cancelled no further run starts: the slots left unstarted
// stay nil and are dropped, and the runs in flight abort between
// events.
func (r *runner) runArea(ctx context.Context, op *policy.Operator, spec deploy.AreaSpec) *AreaResult {
	opts := r.opts
	dep := deploy.Build(op, spec, opts.Seed+1)
	runs := int(float64(spec.Runs)*opts.RunScale + 0.5)
	if runs < 1 {
		runs = 1
	}
	slots := make([]*Record, len(dep.Clusters)*runs) // slot = location·runs + run
	d := &delivery{}
	Sweep(opts.Workers, len(slots), func(i int) {
		if ctx.Err() != nil {
			return // graceful drain: start no more runs
		}
		li, ri := i/runs, i%runs
		key := runKey(op.Name, spec.ID, li, ri, opts.Seed)
		slots[i] = r.executeJob(ctx, op, dep, dep.Clusters[li], li, ri, key)
		r.complete(d, i, key, slots[i])
	})
	res := &AreaResult{Spec: spec, Dep: dep, Records: slots[:0]}
	for _, rec := range slots {
		if rec != nil {
			res.Records = append(res.Records, rec)
		}
	}
	return res
}

// executeJob resolves one run: from the replay map when the journal
// already holds it, by execution otherwise.
func (r *runner) executeJob(ctx context.Context, op *policy.Operator, dep *deploy.Deployment,
	cl *deploy.Cluster, locIdx, runIdx int, key string) *Record {
	if rec, ok := r.done[key]; ok {
		if c := r.opts.Metrics; c != nil {
			c.Add("campaign.runs.resumed", 1)
			c.Add("campaign.runs.resumed"+metricLabel(op.Name, dep.Area.ID), 1)
		}
		return rec
	}
	return ExecuteRun(ctx, op, dep, cl, locIdx, runIdx, r.opts)
}

// runStudy drives the whole study through a runner: journal replay,
// area execution, sink delivery. resume permits replaying a populated
// journal, and requires one to be named.
func runStudy(ctx context.Context, opts Options, specs []deploy.AreaSpec,
	resume bool) (st *Study, sal *checkpoint.Salvage, rerr error) {
	opts = opts.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	r := &runner{cancel: cancel, opts: opts, resume: resume}
	sal, err := r.openJournal()
	if err != nil {
		return nil, nil, err
	}
	if r.jr != nil {
		// A failed close after the final Sync means the journal's
		// durability is in doubt; resume correctness depends on it, so
		// the study must not look clean.
		defer func() {
			if cerr := r.jr.Close(); cerr != nil && rerr == nil {
				rerr = cerr
			}
		}()
	}
	st = &Study{Opts: opts}
	for _, spec := range specs {
		if r.err(cctx) != nil {
			break
		}
		op := policy.ByName(spec.Operator)
		st.Areas = append(st.Areas, r.runArea(cctx, op, spec))
	}
	if r.jr != nil {
		if err := r.jr.Sync(); err != nil && r.err(cctx) == nil {
			r.fail(err)
		}
	}
	return st, sal, r.err(cctx)
}

// RunContext executes the full study under ctx, honouring the
// checkpoint, sink and crash-point options. On cancellation
// it drains gracefully — in-flight runs abort between events, finished
// work stays checkpointed — and returns the partial study together
// with the cancellation cause. A checkpoint journal that already holds
// runs is refused; Resume continues it.
func RunContext(ctx context.Context, opts Options) (*Study, error) {
	st, _, err := runStudy(ctx, opts, deploy.Areas(), false)
	return st, err
}

// RunOperatorContext is RunContext over a single operator's areas.
func RunOperatorContext(ctx context.Context, op *policy.Operator, opts Options) (*Study, error) {
	st, _, err := runStudy(ctx, opts, deploy.AreasFor(op.Name), false)
	return st, err
}

// Resume re-runs the study on top of the checkpoint journal at path:
// runs already journaled are replayed instead of executed, the journal
// is salvaged first if damaged (the returned report says what was
// discarded), and the resulting study — records, aggregates, rendered
// experiments — is byte-identical to an uninterrupted run with the
// same options at any worker count. An empty path is an error.
func Resume(ctx context.Context, opts Options, path string) (*Study, *checkpoint.Salvage, error) {
	opts.Checkpoint = path
	return runStudy(ctx, opts, deploy.Areas(), true)
}

// ResumeOperator is Resume over a single operator's areas.
func ResumeOperator(ctx context.Context, op *policy.Operator, opts Options, path string) (*Study, *checkpoint.Salvage, error) {
	opts.Checkpoint = path
	return runStudy(ctx, opts, deploy.AreasFor(op.Name), true)
}
