// Package crashtest is the deterministic kill-and-resume harness for
// the campaign engine. It drives a small single-operator fixture
// through Options.CrashAfter — the in-process stand-in for a hard kill
// right after the N-th checkpoint append — then resumes from the
// surviving journal and compares against an uninterrupted baseline.
// Its property test sweeps every interruption point; the subprocess
// SIGTERM variant of the same experiment lives in cmd/campaign's
// tests, pinned against the rendered goldens.
package crashtest

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/checkpoint"
	"github.com/mssn/loopscope/internal/policy"
)

// Fixture is one reproducible study configuration under test. Opts
// must not carry Checkpoint, Sink or CrashAfter — the harness owns
// those knobs, and resumes through campaign.ResumeOperator.
type Fixture struct {
	Op   *policy.Operator
	Opts campaign.Options
}

// Default is the canonical small fixture: one operator, minimal run
// scale, short runs. Big enough to exercise multiple areas and loops,
// small enough to sweep every interruption point.
func Default() Fixture {
	return Fixture{
		Op:   policy.OPT(),
		Opts: campaign.Options{Seed: 42, Duration: 120 * time.Second, RunScale: campaign.MinRunScale},
	}
}

// withWorkers returns the fixture options pinned to a worker count.
func (f Fixture) withWorkers(workers int) campaign.Options {
	o := f.Opts
	o.Workers = workers
	return o
}

// Baseline executes the fixture uninterrupted.
func (f Fixture) Baseline(workers int) (*campaign.Study, error) {
	return campaign.RunOperatorContext(context.Background(), f.Op, f.withWorkers(workers))
}

// CrashAt runs the fixture against the journal at path and kills the
// engine right after the k-th checkpoint append (k ≥ 1). It returns an
// error unless the engine died with exactly ErrInjectedCrash.
func (f Fixture) CrashAt(path string, k, workers int) error {
	o := f.withWorkers(workers)
	o.Checkpoint = path
	o.CrashAfter = k
	_, err := campaign.RunOperatorContext(context.Background(), f.Op, o)
	if err != campaign.ErrInjectedCrash {
		return fmt.Errorf("crashtest: CrashAt(%d) returned %w, want ErrInjectedCrash", k, err)
	}
	return nil
}

// Resume continues the fixture from the journal at path.
func (f Fixture) Resume(path string, workers int) (*campaign.Study, *checkpoint.Salvage, error) {
	return f.resumeWith(f.withWorkers(workers), path)
}

// resumeWith is Resume with explicit options (used to crash a resumed
// life again).
func (f Fixture) resumeWith(o campaign.Options, path string) (*campaign.Study, *checkpoint.Salvage, error) {
	return campaign.ResumeOperator(context.Background(), f.Op, o, path)
}

// SameRecords reports whether two studies hold deep-equal areas —
// deployments, record order and record content. Opts are excluded:
// a resumed study legitimately differs in Checkpoint and Workers.
func SameRecords(want, got *campaign.Study) error {
	if len(want.Areas) != len(got.Areas) {
		return fmt.Errorf("crashtest: %d areas vs %d", len(want.Areas), len(got.Areas))
	}
	for i, wa := range want.Areas {
		ga := got.Areas[i]
		if !reflect.DeepEqual(wa.Spec, ga.Spec) || !reflect.DeepEqual(wa.Dep, ga.Dep) {
			return fmt.Errorf("crashtest: area %s: deployment diverged", wa.Spec.ID)
		}
		if len(wa.Records) != len(ga.Records) {
			return fmt.Errorf("crashtest: area %s: %d records vs %d", wa.Spec.ID, len(wa.Records), len(ga.Records))
		}
		for j, wr := range wa.Records {
			if !reflect.DeepEqual(wr, ga.Records[j]) {
				return fmt.Errorf("crashtest: area %s record %d (%s/%s/%d/%d): diverged",
					wa.Spec.ID, j, wr.Op, wr.Area, wr.LocIndex, wr.RunIndex)
			}
		}
	}
	return nil
}
