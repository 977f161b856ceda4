package trace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/meas"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/sig"
)

func ref(s string) cell.Ref { return cell.MustRef(s) }

func at(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

// s1e3Log reproduces the §3 walkthrough: establish, add three SCells,
// modify an SCell (273@387410 → 371@387410), hit the exception, idle,
// re-establish, and repeat.
func s1e3Log(cycles int) *sig.Log {
	l := &sig.Log{}
	base := 0
	for c := 0; c < cycles; c++ {
		l.Append(at(base+100), rrc.SetupRequest{Rat: band.RATNR, Cell: ref("393@521310")})
		l.Append(at(base+200), rrc.Setup{Rat: band.RATNR, Cell: ref("393@521310")})
		l.Append(at(base+210), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("393@521310")})
		l.Append(at(base+3200), rrc.Reconfig{
			Rat: band.RATNR, Serving: ref("393@521310"),
			AddSCells: []rrc.SCellEntry{
				{Index: 1, Cell: ref("273@387410")},
				{Index: 2, Cell: ref("273@398410")},
				{Index: 3, Cell: ref("393@501390")},
			},
		})
		l.Append(at(base+3210), rrc.ReconfigComplete{Rat: band.RATNR})
		l.Append(at(base+5000), rrc.MeasReport{Rat: band.RATNR, Entries: []rrc.MeasEntry{
			{Cell: ref("393@521310"), Role: rrc.RolePCell, Meas: meas.Measurement{RSRPDBm: -81, RSRQDB: -10.5}},
			{Cell: ref("273@387410"), Role: rrc.RoleSCell, Meas: meas.Measurement{RSRPDBm: -85, RSRQDB: -14.5}},
			{Cell: ref("273@398410"), Role: rrc.RoleSCell, Meas: meas.Measurement{RSRPDBm: -82, RSRQDB: -10.5}},
			{Cell: ref("393@501390"), Role: rrc.RoleSCell, Meas: meas.Measurement{RSRPDBm: -82, RSRQDB: -10.5}},
			{Cell: ref("371@387410"), Role: rrc.RoleCandidate, Meas: meas.Measurement{RSRPDBm: -81, RSRQDB: -11.5}},
		}})
		l.Append(at(base+5100), rrc.Reconfig{
			Rat: band.RATNR, Serving: ref("393@521310"),
			AddSCells:     []rrc.SCellEntry{{Index: 1, Cell: ref("371@387410")}},
			ReleaseSCells: []int{1},
		})
		l.Append(at(base+5110), rrc.ReconfigComplete{Rat: band.RATNR})
		l.Append(at(base+5200), rrc.Exception{MMState: "DEREGISTERED", Substate: "NO_CELL_AVAILABLE"})
		base += 16000
	}
	return l
}

func TestExtractS1E3(t *testing.T) {
	tl := FromLog(s1e3Log(2))
	// Per cycle: IDLE, SA1 (PCell), SA2 (+3 SCells), SA3 (modified), IDLE.
	// First IDLE at t=0, then 4 steps per cycle.
	if got := len(tl.Steps); got != 1+4*2 {
		for i, s := range tl.Steps {
			t.Logf("step %d @%v: %v (cause %v)", i, s.At, s.Set, s.Evidence.Kind)
		}
		t.Fatalf("steps = %d, want 9", got)
	}
	if !tl.Steps[0].Set.IsIdle() {
		t.Error("timeline must start IDLE")
	}
	sa2 := tl.Steps[2].Set
	if sa2.State() != cell.State5GSA || len(sa2.MCG.SCells) != 3 {
		t.Errorf("SA2 = %v", sa2)
	}
	sa3 := tl.Steps[3].Set
	if sa3.Contains(ref("273@387410")) || !sa3.Contains(ref("371@387410")) {
		t.Errorf("modification not applied: %v", sa3)
	}
	idle := tl.Steps[4]
	if !idle.Set.IsIdle() || idle.Evidence.Kind != CauseException {
		t.Fatalf("release step wrong: %v cause %v", idle.Set, idle.Evidence.Kind)
	}
	mod := idle.Evidence.PendingMod
	if mod == nil {
		t.Fatal("exception should carry the pending SCell modification")
	}
	if mod.Released != ref("273@387410") || mod.Added != ref("371@387410") || !mod.IntraChannel() {
		t.Errorf("PendingMod = %+v", mod)
	}
	// The two cycles must produce identical key subsequences.
	keys := tl.Keys()
	for i := 1; i <= 4; i++ {
		if keys[i] != keys[i+4] {
			t.Errorf("cycle keys differ at %d: %q vs %q", i, keys[i], keys[i+4])
		}
	}
}

func TestExtractS1E1Unmeasured(t *testing.T) {
	l := &sig.Log{}
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("540@501390")})
	l.Append(at(2000), rrc.Reconfig{
		Rat: band.RATNR, Serving: ref("540@501390"),
		AddSCells: []rrc.SCellEntry{
			{Index: 1, Cell: ref("309@387410")},
			{Index: 2, Cell: ref("309@398410")},
		},
	})
	l.Append(at(2010), rrc.ReconfigComplete{Rat: band.RATNR})
	for i := 0; i < 5; i++ {
		l.Append(at(3000+i*500), rrc.MeasReport{Rat: band.RATNR, Entries: []rrc.MeasEntry{
			{Cell: ref("540@501390"), Role: rrc.RolePCell, Meas: meas.Measurement{RSRPDBm: -80, RSRQDB: -10.5}},
			{Cell: ref("309@398410"), Role: rrc.RoleSCell, Meas: meas.Measurement{RSRPDBm: -83, RSRQDB: -11.5}},
		}})
	}
	l.Append(at(7000), rrc.Release{Rat: band.RATNR})
	tl := FromLog(l)
	last := tl.Steps[len(tl.Steps)-1]
	if last.Evidence.Kind != CauseRRCRelease {
		t.Fatalf("cause = %v", last.Evidence.Kind)
	}
	if len(last.Evidence.UnmeasuredSCells) != 1 || last.Evidence.UnmeasuredSCells[0] != ref("309@387410") {
		t.Errorf("UnmeasuredSCells = %v", last.Evidence.UnmeasuredSCells)
	}
	if last.Evidence.Reports != 5 {
		t.Errorf("Reports = %d", last.Evidence.Reports)
	}
}

func TestExtractS1E2Poor(t *testing.T) {
	l := &sig.Log{}
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("684@501390")})
	l.Append(at(900), rrc.Reconfig{
		Rat: band.RATNR, Serving: ref("684@501390"),
		AddSCells: []rrc.SCellEntry{{Index: 1, Cell: ref("390@387410")}},
	})
	l.Append(at(910), rrc.ReconfigComplete{Rat: band.RATNR})
	l.Append(at(1000), rrc.MeasReport{Rat: band.RATNR, Entries: []rrc.MeasEntry{
		{Cell: ref("684@501390"), Role: rrc.RolePCell, Meas: meas.Measurement{RSRPDBm: -81, RSRQDB: -10.5}},
		{Cell: ref("390@387410"), Role: rrc.RoleSCell, Meas: meas.Measurement{RSRPDBm: -108.5, RSRQDB: -25.5}},
	}})
	l.Append(at(10500), rrc.Release{Rat: band.RATNR})
	tl := FromLog(l)
	last := tl.Steps[len(tl.Steps)-1]
	if len(last.Evidence.PoorSCells) != 1 || last.Evidence.PoorSCells[0] != ref("390@387410") {
		t.Errorf("PoorSCells = %v", last.Evidence.PoorSCells)
	}
	if last.Evidence.WorstSCellRSRP != -108.5 {
		t.Errorf("WorstSCellRSRP = %v", last.Evidence.WorstSCellRSRP)
	}
	if !last.Evidence.HasSCellReport() {
		t.Error("HasSCellReport must be true when an SCell measurement was seen")
	}
	if len(last.Evidence.UnmeasuredSCells) != 0 {
		t.Errorf("UnmeasuredSCells should be empty: %v", last.Evidence.UnmeasuredSCells)
	}
}

// Regression: a release without any SCell measurement report used to
// leave WorstSCellRSRP at the zero value 0 dBm — a physically
// impossible but plausible-looking RSRP that downstream consumers could
// mistake for a real reading. The no-report sentinel is now +Inf,
// detectable via HasSCellReport.
func TestWorstSCellRSRPNoReportSentinel(t *testing.T) {
	l := &sig.Log{}
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("684@501390")})
	l.Append(at(900), rrc.Reconfig{
		Rat: band.RATNR, Serving: ref("684@501390"),
		AddSCells: []rrc.SCellEntry{{Index: 1, Cell: ref("390@387410")}},
	})
	l.Append(at(910), rrc.ReconfigComplete{Rat: band.RATNR})
	// No MeasReport before the release.
	l.Append(at(5000), rrc.Release{Rat: band.RATNR})
	tl := FromLog(l)
	ev := tl.Steps[len(tl.Steps)-1].Evidence
	if !math.IsInf(ev.WorstSCellRSRP.Float(), 1) {
		t.Errorf("WorstSCellRSRP = %v, want +Inf sentinel when no report was seen", ev.WorstSCellRSRP)
	}
	if ev.HasSCellReport() {
		t.Error("HasSCellReport must be false without a measurement report")
	}
	// Every step of the timeline honors the sentinel convention: the
	// zero value 0 dBm never appears as a phantom reading.
	for i, s := range tl.Steps {
		if !s.Evidence.HasSCellReport() && !math.IsInf(s.Evidence.WorstSCellRSRP.Float(), 1) {
			t.Errorf("step %d: report-free evidence carries RSRP %v", i, s.Evidence.WorstSCellRSRP)
		}
	}
}

func TestExtractN2E1Handover(t *testing.T) {
	l := &sig.Log{}
	spCell := ref("53@632736")
	back := ref("380@5145")
	away := ref("380@5815")
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATLTE, Cell: back})
	l.Append(at(1000), rrc.Reconfig{Rat: band.RATLTE, Serving: back, SpCell: &spCell})
	l.Append(at(1010), rrc.ReconfigComplete{Rat: band.RATLTE})
	// Handover to the 5G-disabled channel without spCellConfig: drop SCG.
	l.Append(at(5000), rrc.Reconfig{Rat: band.RATLTE, Serving: back, Mobility: &away})
	l.Append(at(5010), rrc.ReconfigComplete{Rat: band.RATLTE})
	tl := FromLog(l)
	last := tl.Steps[len(tl.Steps)-1]
	if last.Set.State() != cell.State4GOnly {
		t.Fatalf("state = %v", last.Set.State())
	}
	if last.Evidence.Kind != CauseHandoverNoSCG {
		t.Errorf("cause = %v", last.Evidence.Kind)
	}
	if last.Evidence.HandoverFrom != back || last.Evidence.HandoverTo != away {
		t.Errorf("handover evidence = %v → %v", last.Evidence.HandoverFrom, last.Evidence.HandoverTo)
	}
}

func TestExtractHandoverKeepingSCG(t *testing.T) {
	l := &sig.Log{}
	spCell := ref("53@632736")
	from, to := ref("380@5815"), ref("380@5145")
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATLTE, Cell: from})
	// Handover that re-provisions the SCG in the same message keeps 5G.
	l.Append(at(1000), rrc.Reconfig{Rat: band.RATLTE, Serving: from, Mobility: &to, SpCell: &spCell})
	l.Append(at(1010), rrc.ReconfigComplete{Rat: band.RATLTE})
	tl := FromLog(l)
	last := tl.Steps[len(tl.Steps)-1]
	if last.Set.State() != cell.State5GNSA {
		t.Fatalf("state = %v, want NSA", last.Set.State())
	}
	if last.Evidence.Kind != CauseNone {
		t.Errorf("cause = %v, want none", last.Evidence.Kind)
	}
}

func TestExtractN2E2SCGFailure(t *testing.T) {
	l := &sig.Log{}
	spCell := ref("188@648672")
	pcell := ref("62@1075")
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATLTE, Cell: pcell})
	l.Append(at(1000), rrc.Reconfig{Rat: band.RATLTE, Serving: pcell, SpCell: &spCell,
		SCGSCells: []cell.Ref{ref("188@653952")}})
	l.Append(at(1010), rrc.ReconfigComplete{Rat: band.RATLTE})
	l.Append(at(5000), rrc.SCGFailureInfo{FailureType: rrc.SCGFailureRandomAccess})
	l.Append(at(5040), rrc.Reconfig{Rat: band.RATLTE, Serving: pcell, SCGRelease: true})
	l.Append(at(5050), rrc.ReconfigComplete{Rat: band.RATLTE})
	tl := FromLog(l)
	last := tl.Steps[len(tl.Steps)-1]
	if last.Set.State() != cell.State4GOnly {
		t.Fatalf("state = %v", last.Set.State())
	}
	if last.Evidence.Kind != CauseSCGRelease || last.Evidence.SCGFailure != rrc.SCGFailureRandomAccess {
		t.Errorf("evidence = %+v", last.Evidence)
	}
}

func TestExtractReestablishment(t *testing.T) {
	l := &sig.Log{}
	spCell := ref("66@632736")
	pcell := ref("191@66936")
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATLTE, Cell: pcell})
	l.Append(at(1000), rrc.Reconfig{Rat: band.RATLTE, Serving: pcell, SpCell: &spCell})
	l.Append(at(1010), rrc.ReconfigComplete{Rat: band.RATLTE})
	l.Append(at(8000), rrc.ReestablishmentRequest{Cause: rrc.ReestOtherFailure})
	l.Append(at(8100), rrc.ReestablishmentComplete{Cell: ref("238@5815")})
	tl := FromLog(l)
	// Steps: IDLE, 4G, NSA, IDLE (reest req), 4G (reest complete).
	if len(tl.Steps) != 5 {
		t.Fatalf("steps = %d", len(tl.Steps))
	}
	rel := tl.Steps[3]
	if rel.Evidence.Kind != CauseReestablishment || rel.Evidence.ReestCause != rrc.ReestOtherFailure {
		t.Errorf("reestablishment evidence = %+v", rel.Evidence)
	}
	if rel.Evidence.HandoverFrom != pcell {
		t.Errorf("HandoverFrom = %v", rel.Evidence.HandoverFrom)
	}
	if got := tl.Steps[4].Set.MCG.Primary; got != ref("238@5815") {
		t.Errorf("re-anchored PCell = %v", got)
	}
}

func TestTimeIn5G(t *testing.T) {
	tl := FromLog(s1e3Log(1))
	// ON from 210 ms (setup complete) to 5200 ms (exception): ~4990 ms.
	on := tl.TimeIn5G(0, tl.Duration)
	if on != 4990*time.Millisecond {
		t.Errorf("TimeIn5G = %v, want 4.99s", on)
	}
	// Restricted window.
	on = tl.TimeIn5G(at(1000), at(2000))
	if on != time.Second {
		t.Errorf("windowed TimeIn5G = %v", on)
	}
}

// connectedSet returns a minimal 5G SA serving set for hand-built
// timeline boundary tests.
func connectedSet() cell.Set {
	return cell.Set{MCG: &cell.Group{RAT: band.RATNR, Primary: ref("393@521310")}}
}

// TestTimeIn5GBoundaries pins the window/step edge cases: empty
// timelines, steps landing exactly at or past the observation end, and
// query windows outside the observation.
func TestTimeIn5GBoundaries(t *testing.T) {
	empty := &Timeline{}
	if got := empty.TimeIn5G(0, time.Minute); got != 0 {
		t.Errorf("empty timeline TimeIn5G = %v, want 0", got)
	}
	if occ := empty.Occupy(); occ.Total != 0 || occ.OffRatio() != 0 {
		t.Errorf("empty timeline occupancy = %+v", occ)
	}

	// One connected step whose start coincides with the observation end:
	// it is in force for zero time.
	atEnd := &Timeline{
		Steps: []Step{
			{At: 0, Set: cell.Set{}},
			{At: 10 * time.Second, Set: connectedSet()},
		},
		Duration: 10 * time.Second,
	}
	if got := atEnd.TimeIn5G(0, atEnd.Duration); got != 0 {
		t.Errorf("step at Duration contributes %v, want 0", got)
	}

	// A step past the observation end (possible on damaged captures
	// where Duration came from a truncated tail) must not produce a
	// negative contribution.
	past := &Timeline{
		Steps: []Step{
			{At: 0, Set: cell.Set{}},
			{At: 12 * time.Second, Set: connectedSet()},
		},
		Duration: 10 * time.Second,
	}
	if got := past.TimeIn5G(0, past.Duration); got != 0 {
		t.Errorf("step past Duration contributes %v, want 0", got)
	}
	occ := past.Occupy()
	if occ.SA != 0 || occ.Idle != 12*time.Second {
		t.Errorf("occupancy with step past Duration = %+v", occ)
	}
	if r := occ.OffRatio(); r < 0 || r > 1 {
		t.Errorf("OffRatio = %v, want within [0,1]", r)
	}

	// Windows entirely outside the observation.
	tl := FromLog(s1e3Log(1))
	if got := tl.TimeIn5G(tl.Duration+time.Second, tl.Duration+time.Minute); got != 0 {
		t.Errorf("window after observation = %v, want 0", got)
	}
	if got := tl.TimeIn5G(-time.Minute, 0); got != 0 {
		t.Errorf("window before observation = %v, want 0", got)
	}
	// Inverted window.
	if got := tl.TimeIn5G(at(2000), at(1000)); got != 0 {
		t.Errorf("inverted window = %v, want 0", got)
	}
}

// TestOffRatioWithinUnit property: OffRatio stays in [0,1] for
// arbitrary generated runs — the denominator view behind every OFF-time
// figure of the paper must be a true ratio.
func TestOffRatioWithinUnit(t *testing.T) {
	for cycles := 1; cycles <= 4; cycles++ {
		occ := FromLog(s1e3Log(cycles)).Occupy()
		if r := occ.OffRatio(); r < 0 || r > 1 {
			t.Errorf("cycles=%d: OffRatio = %v, want within [0,1]", cycles, r)
		}
	}
}

func TestStaleReconfigAfterRelease(t *testing.T) {
	l := &sig.Log{}
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("393@521310")})
	l.Append(at(1000), rrc.Release{Rat: band.RATNR})
	// A straggler completion after release must not resurrect cells.
	l.Append(at(1100), rrc.Reconfig{Rat: band.RATNR, Serving: ref("393@521310"),
		AddSCells: []rrc.SCellEntry{{Index: 1, Cell: ref("273@387410")}}})
	l.Append(at(1110), rrc.ReconfigComplete{Rat: band.RATNR})
	tl := FromLog(l)
	if !tl.Steps[len(tl.Steps)-1].Set.IsIdle() {
		t.Error("stale reconfig resurrected the connection")
	}
}

func TestIndexReuseReplacesCell(t *testing.T) {
	l := &sig.Log{}
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("393@521310")})
	l.Append(at(1000), rrc.Reconfig{Rat: band.RATNR, Serving: ref("393@521310"),
		AddSCells: []rrc.SCellEntry{{Index: 4, Cell: ref("393@501390")}}})
	l.Append(at(1010), rrc.ReconfigComplete{Rat: band.RATNR})
	// Re-using index 4 swaps the cell (the Fig. 26 first change:
	// 393@501390 → 104@501390 via release {3} + add idx 4 is modeled
	// here as index reuse).
	l.Append(at(2000), rrc.Reconfig{Rat: band.RATNR, Serving: ref("393@521310"),
		AddSCells: []rrc.SCellEntry{{Index: 4, Cell: ref("104@501390")}}})
	l.Append(at(2010), rrc.ReconfigComplete{Rat: band.RATNR})
	tl := FromLog(l)
	last := tl.Steps[len(tl.Steps)-1].Set
	if last.Contains(ref("393@501390")) || !last.Contains(ref("104@501390")) {
		t.Errorf("index reuse not applied: %v", last)
	}
	ev := tl.Steps[len(tl.Steps)-1].Evidence
	if ev.Kind != CauseNone {
		t.Errorf("benign modification misclassified: %v", ev.Kind)
	}
}

func TestReleaseKindStrings(t *testing.T) {
	for k, want := range map[ReleaseKind]string{
		CauseNone: "none", CauseException: "exception", CauseRRCRelease: "rrc-release",
		CauseReestablishment: "reestablishment", CauseSCGRelease: "scg-release",
		CauseHandoverNoSCG: "handover-no-scg",
	} {
		if k.String() != want {
			t.Errorf("%d = %q, want %q", k, k, want)
		}
	}
	if ReleaseKind(99).String() != "ReleaseKind(99)" {
		t.Error("unknown kind string")
	}
}

// TestExtractInvariants property: over arbitrary-but-valid message
// sequences, the timeline always starts IDLE, step times are
// nondecreasing, and consecutive steps have distinct keys.
func TestExtractInvariants(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := &sig.Log{}
		now := 0
		connected := false
		var pcell cell.Ref
		idx := 1
		for i := 0; i < int(n%40)+5; i++ {
			now += 100 + rng.Intn(3000)
			switch rng.Intn(6) {
			case 0:
				pcell = cell.Ref{PCI: 100 + rng.Intn(300), Channel: 521310}
				l.Append(at(now), rrc.SetupComplete{Rat: band.RATNR, Cell: pcell})
				connected = true
			case 1:
				if connected {
					sc := cell.Ref{PCI: 100 + rng.Intn(300), Channel: 387410}
					l.Append(at(now), rrc.Reconfig{Rat: band.RATNR, Serving: pcell,
						AddSCells: []rrc.SCellEntry{{Index: idx, Cell: sc}}})
					l.Append(at(now+10), rrc.ReconfigComplete{Rat: band.RATNR})
					idx++
				}
			case 2:
				if connected {
					l.Append(at(now), rrc.Release{Rat: band.RATNR})
					connected = false
				}
			case 3:
				if connected {
					l.Append(at(now), rrc.Exception{MMState: "DEREGISTERED", Substate: "NO_CELL_AVAILABLE"})
					connected = false
				}
			case 4:
				l.Append(at(now), rrc.MeasReport{Rat: band.RATNR})
			case 5:
				if connected {
					l.Append(at(now), rrc.Reconfig{Rat: band.RATNR, Serving: pcell,
						ReleaseSCells: []int{1 + rng.Intn(idx)}})
					l.Append(at(now+10), rrc.ReconfigComplete{Rat: band.RATNR})
				}
			}
		}
		tl := FromLog(l)
		if len(tl.Steps) == 0 || !tl.Steps[0].Set.IsIdle() || tl.Steps[0].At != 0 {
			return false
		}
		for i := 1; i < len(tl.Steps); i++ {
			if tl.Steps[i].At < tl.Steps[i-1].At {
				return false
			}
			if tl.Steps[i].Set.Key() == tl.Steps[i-1].Set.Key() {
				return false // consecutive steps must differ
			}
		}
		// TimeIn5G over the whole run is bounded by the duration.
		if on := tl.TimeIn5G(0, tl.Duration); on < 0 || on > tl.Duration {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestOccupancy(t *testing.T) {
	tl := FromLog(s1e3Log(2))
	o := tl.Occupy()
	if o.Total != tl.Duration || o.Steps != len(tl.Steps) {
		t.Errorf("totals: %+v", o)
	}
	if o.Idle+o.SA+o.NSA+o.LTE != o.Total {
		t.Errorf("occupancy does not partition the run: %+v", o)
	}
	if o.On5G() != tl.TimeIn5G(0, tl.Duration) {
		t.Errorf("On5G %v != TimeIn5G %v", o.On5G(), tl.TimeIn5G(0, tl.Duration))
	}
	if o.Swings != 2 {
		t.Errorf("swings = %d, want 2", o.Swings)
	}
	if r := o.OffRatio(); r <= 0 || r >= 1 {
		t.Errorf("OffRatio = %v", r)
	}
	if (Occupancy{}).OffRatio() != 0 {
		t.Error("empty occupancy ratio should be 0")
	}
}

// TestFromLogResyncsClockRegression: a salvaged capture whose logger
// restarted mid-run (timestamps reset to zero) folds into a monotonic
// timeline with the two segments treated as contiguous.
func TestFromLogResyncsClockRegression(t *testing.T) {
	l := &sig.Log{}
	l.Append(at(10_000), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("393@521310")})
	l.Append(at(20_000), rrc.Release{Rat: band.RATNR})
	// Logger restart: the clock regresses to near zero.
	l.Append(at(1_000), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("393@521310")})
	l.Append(at(5_000), rrc.Release{Rat: band.RATNR})

	tl := FromLog(l)
	prev := time.Duration(-1)
	for i, s := range tl.Steps {
		if s.At < prev {
			t.Fatalf("step %d at %v regresses below %v", i, s.At, prev)
		}
		prev = s.At
	}
	// The second segment re-anchors at 20s: its release lands at 24s.
	if got := tl.Steps[len(tl.Steps)-1].At; got != 24*time.Second {
		t.Errorf("final step at %v, want 24s", got)
	}
	if tl.Duration != 24*time.Second {
		t.Errorf("duration = %v, want 24s", tl.Duration)
	}
	// Occupancy stays NaN-free and positive despite the regression.
	occ := tl.Occupy()
	if occ.On5G() != 14*time.Second {
		t.Errorf("5G time = %v, want 14s (10s + 4s)", occ.On5G())
	}
}

// TestFromLogCleanUnchanged: monotonic captures are untouched by the
// resync path — steps stay in order and the duration is the log's.
func TestFromLogCleanUnchanged(t *testing.T) {
	l := s1e3Log(3)
	tl := FromLog(l)
	for i := 1; i < len(tl.Steps); i++ {
		if tl.Steps[i].At < tl.Steps[i-1].At {
			t.Fatalf("clean log produced non-monotonic steps")
		}
	}
	if tl.Duration != l.Duration() {
		t.Errorf("duration = %v, want %v", tl.Duration, l.Duration())
	}
}

// TestBuilderTeeSteps: a tee registered on a Builder observes every
// timeline step exactly once and in order — including steps appended
// before registration, which are replayed immediately so a late
// consumer (the stream detector) starts from the same step zero the
// finished timeline has.
func TestBuilderTeeSteps(t *testing.T) {
	log := s1e3Log(2)
	b := NewBuilder()
	var seen []Step
	// NewBuilder itself pushes the initial IDLE step before any event;
	// registering afterwards must replay it.
	b.TeeSteps(func(s Step) { seen = append(seen, s) })
	for _, e := range log.Events {
		b.Append(e.At, e.Msg)
	}
	tl := b.Finish()
	if len(seen) != len(tl.Steps) {
		t.Fatalf("tee saw %d steps, timeline has %d", len(seen), len(tl.Steps))
	}
	for i := range seen {
		if seen[i].At != tl.Steps[i].At || seen[i].Set.Key() != tl.Steps[i].Set.Key() {
			t.Errorf("step %d: tee saw {%v %s}, timeline has {%v %s}",
				i, seen[i].At, seen[i].Set.Key(), tl.Steps[i].At, tl.Steps[i].Set.Key())
		}
	}
	if len(seen) == 0 || !seen[0].Set.IsIdle() {
		t.Error("tee missed the initial IDLE step")
	}

	// A nil tee detaches cleanly.
	b2 := NewBuilder()
	calls := 0
	b2.TeeSteps(func(Step) { calls++ })
	b2.TeeSteps(nil)
	for _, e := range log.Events {
		b2.Append(e.At, e.Msg)
	}
	b2.Finish()
	if calls != 1 { // only the replayed initial IDLE step
		t.Errorf("detached tee called %d times, want 1", calls)
	}
}
