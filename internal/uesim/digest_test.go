package uesim

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/geo"
	"github.com/mssn/loopscope/internal/policy"
)

// firstCluster returns the first cluster of an archetype in an area
// deployment built with a fixed seed.
func firstCluster(t *testing.T, op *policy.Operator, areaID string, seed int64, arch deploy.Archetype) (*deploy.Deployment, *deploy.Cluster) {
	t.Helper()
	area, ok := deploy.AreaByID(areaID)
	if !ok {
		t.Fatalf("unknown area %s", areaID)
	}
	d := deploy.Build(op, area, seed)
	for _, cl := range d.Clusters {
		if cl.Arch == arch {
			return d, cl
		}
	}
	t.Fatalf("no %v cluster in %s at seed %d", arch, areaID, seed)
	return nil, nil
}

// walkingRun is one pinned walking run: its config and the SHA-256 of
// its capture.
type walkingRun struct {
	name string
	cfg  Config
	want string
}

// walkingRuns builds one multi-leg walking run per mode. The path is
// exhausted before the run ends, so the walker also stands still at the
// last waypoint for a while.
func walkingRuns(t *testing.T) []walkingRun {
	t.Helper()
	cases := []struct {
		name string
		op   *policy.Operator
		area string
		arch deploy.Archetype
		want string
	}{
		{"SA-OPT", policy.OPT(), "A1", deploy.ArchS1E3, "d087859efa80045117e10ba6edcbd469f0f7097e68ac323af3b5c8c18d85d0a4"},
		{"NSA-OPV", policy.OPV(), "A11", deploy.ArchN2E2, "4953935b79a51ee759ced89c3214dc85554a358861ef4dd5b6bc778dda0aca19"},
	}
	var out []walkingRun
	for _, c := range cases {
		d, cl := firstCluster(t, c.op, c.area, 5, c.arch)
		out = append(out, walkingRun{c.name, Config{
			Op: d.Op, Field: d.Field, Cluster: cl,
			Loc: cl.Loc.Add(-150, -100),
			Path: []geo.Point{
				cl.Loc.Add(150, -100),
				cl.Loc.Add(150, 100),
				cl.Loc,
			},
			WalkSpeedMps: 2.5,
			Duration:     5 * time.Minute,
			Seed:         4242,
		}, c.want})
	}
	return out
}

// captureDigest runs cfg and returns the SHA-256 of its capture.
func captureDigest(cfg Config) string {
	sum := sha256.Sum256([]byte(Run(cfg).Log.String()))
	return hex.EncodeToString(sum[:])
}

// TestWalkingRunDigests pins the emitted capture of one walking run per
// mode byte for byte. The stationary goldens never move the UE, so
// these are what hold the engine's per-position state (the median
// memo, refilled whenever the walker moves) to the same output as
// recomputing every median.
func TestWalkingRunDigests(t *testing.T) {
	for _, w := range walkingRuns(t) {
		if got := captureDigest(w.cfg); got != w.want {
			t.Errorf("%s: capture digest %s, want %s", w.name, got, w.want)
		}
	}
}

// TestConcurrentRunsShareFieldAndCluster runs the pinned walks from
// several goroutines at once over one Field and one Cluster per mode,
// as a study's workers do. Under -race this checks that the engine
// keeps its caches to itself.
func TestConcurrentRunsShareFieldAndCluster(t *testing.T) {
	runs := walkingRuns(t)
	const copies = 3
	got := make([]string, len(runs)*copies)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = captureDigest(runs[i%len(runs)].cfg)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if w := runs[i%len(runs)]; g != w.want {
			t.Errorf("%s copy %d: capture digest %s, want %s", w.name, i/len(runs), g, w.want)
		}
	}
}
