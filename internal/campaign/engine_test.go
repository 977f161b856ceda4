package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/checkpoint"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/policy"
)

// tinyOpts is a fast single-operator study configuration.
func tinyOpts() Options {
	return Options{Seed: 42, Duration: 120 * time.Second, RunScale: MinRunScale}
}

// runOPT runs the study over OPT's areas, failing the test on an
// engine error.
func runOPT(t *testing.T, opts Options) *Study {
	t.Helper()
	st, err := RunOperatorContext(context.Background(), policy.OPT(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// collectSink gathers the record stream in delivery order.
type collectSink struct{ recs []*Record }

func (s *collectSink) Record(rec *Record) error {
	s.recs = append(s.recs, rec)
	return nil
}

// TestStudySinkEquivalence: the record stream reassembles into exactly
// the study the engine returns, at several worker counts.
func TestStudySinkEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		opts := tinyOpts()
		opts.Workers = workers
		want := runOPT(t, opts)
		cs := &collectSink{}
		opts.Sink = cs
		got := runOPT(t, opts)
		if !reflect.DeepEqual(want.Records(""), cs.recs) {
			t.Fatalf("workers=%d: streamed study diverged from materialized study", workers)
		}
		if !reflect.DeepEqual(got.Records(""), cs.recs) {
			t.Fatalf("workers=%d: sink saw different records than the returned study", workers)
		}
	}
}

// TestJSONLSinkDeterministicOrder: the JSONL byte stream is identical
// at any worker count.
func TestJSONLSinkDeterministicOrder(t *testing.T) {
	render := func(workers int) []byte {
		var buf bytes.Buffer
		opts := tinyOpts()
		opts.Workers = workers
		opts.Sink = NewJSONLSink(&buf)
		if _, err := RunOperatorContext(context.Background(), policy.OPT(), opts); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := render(1)
	if len(seq) == 0 || bytes.Count(seq, []byte{'\n'}) < 2 {
		t.Fatalf("JSONL output suspiciously small: %d bytes", len(seq))
	}
	if par := render(4); !bytes.Equal(seq, par) {
		t.Fatal("JSONL output differs between 1 and 4 workers")
	}
}

// TestResumeFromCrash: a study killed by the fault point after k
// checkpoint appends resumes to records deep-equal to an uninterrupted
// run's, and the journal skips exactly the completed runs.
func TestResumeFromCrash(t *testing.T) {
	opts := tinyOpts()
	want := runOPT(t, opts)
	total := len(want.Records(""))
	if total < 3 {
		t.Fatalf("fixture too small: %d runs", total)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "study.ckpt")
	reg := obs.NewRegistry()
	crashOpts := opts
	crashOpts.Checkpoint = path
	crashOpts.CrashAfter = 2
	crashOpts.Metrics = reg
	_, err := RunOperatorContext(context.Background(), policy.OPT(), crashOpts)
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("err = %v, want ErrInjectedCrash", err)
	}
	if got := reg.Counter("campaign.runs.checkpointed").Value(); got != 2 {
		t.Fatalf("checkpointed = %d, want 2 (crash must stop persistence)", got)
	}

	resumeOpts := opts
	resumeOpts.Metrics = reg
	st, sal, err := resumeOperator(t, resumeOpts, path)
	if err != nil {
		t.Fatal(err)
	}
	if !sal.Clean() {
		t.Fatalf("journal unexpectedly damaged: %s", sal.Summary())
	}
	if !reflect.DeepEqual(want.Areas, st.Areas) {
		t.Fatal("resumed study diverged from uninterrupted study")
	}
	if got := reg.Counter("campaign.runs.resumed").Value(); got != 2 {
		t.Fatalf("resumed = %d, want 2", got)
	}
}

// resumeOperator is Resume narrowed to OPT's areas (Resume proper runs
// every operator; tests stay fast on one).
func resumeOperator(t *testing.T, opts Options, path string) (*Study, *checkpoint.Salvage, error) {
	t.Helper()
	return ResumeOperator(context.Background(), policy.OPT(), opts, path)
}

// TestResumeRequiresFlag: an existing journal without Resume is an
// error, so two studies cannot interleave into one file.
func TestResumeRequiresFlag(t *testing.T) {
	opts := tinyOpts()
	path := filepath.Join(t.TempDir(), "study.ckpt")
	opts.Checkpoint = path
	opts.CrashAfter = 1
	if _, err := RunOperatorContext(context.Background(), policy.OPT(), opts); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("setup: %v", err)
	}
	opts.CrashAfter = 0
	if _, err := RunOperatorContext(context.Background(), policy.OPT(), opts); err == nil {
		t.Fatal("reusing a populated journal without Resume must fail")
	}
}

// TestResumeRequiresPath: resuming without a journal path is an error,
// not a fresh study that silently journals nothing.
func TestResumeRequiresPath(t *testing.T) {
	opts := tinyOpts()
	opts.Checkpoint = filepath.Join(t.TempDir(), "study.ckpt") // the path argument wins
	if st, _, err := ResumeOperator(context.Background(), policy.OPT(), opts, ""); err == nil {
		t.Fatalf("ResumeOperator with an empty path ran %d runs without error", len(st.Records("")))
	}
	if _, _, err := Resume(context.Background(), opts, ""); err == nil {
		t.Fatal("Resume with an empty path must fail")
	}
	if _, err := os.Stat(opts.Checkpoint); !os.IsNotExist(err) {
		t.Fatalf("a refused resume touched Options.Checkpoint: %v", err)
	}
}

// TestResumeRejectsForeignJournal: the options fingerprint guards
// against resuming under different study options.
func TestResumeRejectsForeignJournal(t *testing.T) {
	opts := tinyOpts()
	path := filepath.Join(t.TempDir(), "study.ckpt")
	opts.Checkpoint = path
	opts.CrashAfter = 1
	if _, err := RunOperatorContext(context.Background(), policy.OPT(), opts); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("setup: %v", err)
	}
	other := opts
	other.Seed = 43
	other.CrashAfter = 0
	if _, _, err := resumeOperator(t, other, path); err == nil {
		t.Fatal("resuming under a different seed must fail the fingerprint check")
	}
}

// TestResumeSalvagesDamagedJournal: a torn journal tail (crash mid-
// append) is salvaged, the lost runs re-execute, and the study is
// still deep-equal to an uninterrupted one.
func TestResumeSalvagesDamagedJournal(t *testing.T) {
	opts := tinyOpts()
	want := runOPT(t, opts)
	path := filepath.Join(t.TempDir(), "study.ckpt")
	crash := opts
	crash.Checkpoint = path
	crash.CrashAfter = 3
	if _, err := RunOperatorContext(context.Background(), policy.OPT(), crash); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("setup: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	st, sal, err := resumeOperator(t, opts, path)
	if err != nil {
		t.Fatal(err)
	}
	if sal.Clean() {
		t.Fatal("damaged journal reported clean salvage")
	}
	if !reflect.DeepEqual(want.Areas, st.Areas) {
		t.Fatal("salvaged resume diverged from uninterrupted study")
	}
}

// TestCancelDrainsGracefully: cancelling mid-study stops dispatch,
// aborts in-flight runs between events, and reports the cause.
func TestCancelDrainsGracefully(t *testing.T) {
	opts := tinyOpts()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := RunOperatorContext(ctx, policy.OPT(), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, a := range st.Areas {
		for _, r := range a.Records {
			if r == nil {
				t.Fatal("cancelled study contains nil record slots")
			}
		}
	}
}

// cancelAfterSink cancels the study context on its k-th record, so
// the cancellation lands mid-area while other runs are in flight.
type cancelAfterSink struct {
	k, n   int
	cancel context.CancelFunc
}

func (s *cancelAfterSink) Record(*Record) error {
	if s.n++; s.n == s.k {
		s.cancel()
	}
	return nil
}

// TestCancelDrainsMidArea: a cancellation raised from inside the record
// stream drains the area in flight. The partial study holds no nil
// slots, keeps each area in slot order and carries only complete or
// cancelled records, and resuming its journal converges on the
// uninterrupted study.
func TestCancelDrainsMidArea(t *testing.T) {
	want := runOPT(t, tinyOpts())
	total := len(want.Records(""))
	for _, workers := range []int{1, 4} {
		for _, k := range []int{1, 3, 9} {
			if k >= total {
				t.Fatalf("fixture too small: %d runs for k=%d", total, k)
			}
			t.Run(fmt.Sprintf("workers=%d/k=%d", workers, k), func(t *testing.T) {
				opts := tinyOpts()
				opts.Workers = workers
				path := filepath.Join(t.TempDir(), "study.ckpt")
				interrupted := opts
				interrupted.Checkpoint = path
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				interrupted.Sink = &cancelAfterSink{k: k, cancel: cancel}
				st, err := RunOperatorContext(ctx, policy.OPT(), interrupted)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				for _, a := range st.Areas {
					for i, r := range a.Records {
						if r == nil {
							t.Fatalf("area %s: nil record slot %d", a.Spec.ID, i)
						}
						if i > 0 {
							p := a.Records[i-1]
							if p.LocIndex > r.LocIndex || p.LocIndex == r.LocIndex && p.RunIndex >= r.RunIndex {
								t.Fatalf("area %s: record %d (%d/%d) does not follow (%d/%d)",
									a.Spec.ID, i, r.LocIndex, r.RunIndex, p.LocIndex, p.RunIndex)
							}
						}
						complete := r.FailKind == FailNone && r.Timeline != nil
						if !complete && r.FailKind != FailCancelled {
							t.Fatalf("area %s: record %d is neither complete nor cancelled: kind %v, err %q",
								a.Spec.ID, i, r.FailKind, r.Err)
						}
					}
				}
				got, _, err := ResumeOperator(context.Background(), policy.OPT(), opts, path)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want.Areas, got.Areas) {
					t.Fatal("resume after a mid-area cancel diverged from the uninterrupted study")
				}
			})
		}
	}
}

// TestStudyDeadlineResumesByteIdentical: a checkpointed study aborted
// by a study-wide context deadline must not journal its interrupted
// runs as permanent deadline failures; resuming re-executes them and
// converges on the uninterrupted study.
func TestStudyDeadlineResumesByteIdentical(t *testing.T) {
	opts := tinyOpts()
	want := runOPT(t, opts)
	path := filepath.Join(t.TempDir(), "study.ckpt")
	interrupted := opts
	interrupted.Checkpoint = path
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := RunOperatorContext(ctx, policy.OPT(), interrupted); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("setup: err = %v, want context.DeadlineExceeded", err)
	}
	st, sal, err := resumeOperator(t, opts, path)
	if err != nil {
		t.Fatal(err)
	}
	if !sal.Clean() {
		t.Fatalf("journal unexpectedly damaged: %s", sal.Summary())
	}
	if !reflect.DeepEqual(want.Areas, st.Areas) {
		t.Fatal("resume after a study-wide deadline diverged from the uninterrupted study")
	}
}

// TestCancelledRecordKind covers the cancelled branch of the taxonomy
// via ExecuteRun directly (the engine drops such records from
// sinks and journals).
func TestCancelledRecordKind(t *testing.T) {
	opts := tinyOpts().withDefaults()
	reg := obs.NewRegistry()
	opts.Metrics = reg
	spec := areaSpec(t, "A1")
	dep := deploy.Build(policy.OPT(), spec, opts.Seed+1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := ExecuteRun(ctx, policy.OPT(), dep, dep.Clusters[0], 0, 0, opts)
	if rec.FailKind != FailCancelled {
		t.Fatalf("FailKind = %v, want FailCancelled", rec.FailKind)
	}
	if got := reg.Counter("campaign.failures.cancelled").Value(); got != 1 {
		t.Fatalf("campaign.failures.cancelled = %d, want 1", got)
	}
}

// TestCancelBeforeRetryIsCancelled: a study cancelled between a
// panicked attempt and its retry yields a cancelled record — not the
// interim panic, which would be checkpointed as final although an
// uninterrupted study would have retried it.
func TestCancelBeforeRetryIsCancelled(t *testing.T) {
	opts := tinyOpts().withDefaults()
	spec := areaSpec(t, "A1")
	dep := deploy.Build(policy.OPT(), spec, opts.Seed+1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testHookPanic = func(area string, locIdx, runIdx, attempt int) bool {
		if attempt == 0 {
			cancel()
			return true
		}
		return false
	}
	defer func() { testHookPanic = nil }()
	rec := ExecuteRun(ctx, policy.OPT(), dep, dep.Clusters[0], 0, 0, opts)
	if rec.FailKind != FailCancelled {
		t.Fatalf("FailKind = %v, want FailCancelled so resume re-runs with the full retry budget", rec.FailKind)
	}
	if rec.Stack != "" {
		t.Fatal("cancelled record must not carry the interim panic stack")
	}
}

// TestStudyDeadlineIsCancelled: expiry of the study context — even
// though it surfaces as context.DeadlineExceeded — classifies as
// FailCancelled: such runs have no durable result and a resumed study
// re-executes them.
func TestStudyDeadlineIsCancelled(t *testing.T) {
	opts := tinyOpts().withDefaults()
	spec := areaSpec(t, "A1")
	dep := deploy.Build(policy.OPT(), spec, opts.Seed+1)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rec := ExecuteRun(ctx, policy.OPT(), dep, dep.Clusters[0], 0, 0, opts)
	if rec.FailKind != FailCancelled {
		t.Fatalf("FailKind = %v, want FailCancelled for a study-wide deadline", rec.FailKind)
	}
}
