package core

import (
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	measpkg "github.com/mssn/loopscope/internal/meas"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/units"
)

// These tests reconstruct the real-world loop instances of the paper's
// Appendix C (Figures 27–33) as signaling logs — same cells, same
// channels, same message flow — and assert that the pipeline assigns
// the paper's sub-type label. Each cycle is repeated twice, since a
// single occurrence is not a loop.

// meas builds a measurement entry.
func meas(refStr string, role rrc.MeasRole, rsrp units.DBm, rsrq units.DB) rrc.MeasEntry {
	return rrc.MeasEntry{Cell: ref(refStr), Role: role,
		Meas: measpkg.Measurement{RSRPDBm: rsrp, RSRQDB: rsrq}}
}

// classifyLog runs the full pipeline over a log.
func classifyLog(t *testing.T, l *sig.Log) (Subtype, *Loop) {
	t.Helper()
	tl := trace.FromLog(l)
	loop, ok := Detect(tl)
	if !ok {
		for i, s := range tl.Steps {
			t.Logf("step %d @%v: %v (%v)", i, s.At, s.Set, s.Evidence.Kind)
		}
		t.Fatal("no loop detected")
	}
	return Classify(loop), loop
}

// TestAppendixFig27S1E1 — the S1E1 instance: SCell 309@387410 is never
// present in any measurement report; all serving cells are released.
func TestAppendixFig27S1E1(t *testing.T) {
	l := &sig.Log{}
	base := 0
	for c := 0; c < 2; c++ {
		l.Append(at(base+100), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("540@501390")})
		l.Append(at(base+2615), rrc.Reconfig{
			Rat: band.RATNR, Serving: ref("540@501390"),
			AddSCells: []rrc.SCellEntry{
				{Index: 1, Cell: ref("309@387410")},
				{Index: 2, Cell: ref("309@398410")},
				{Index: 3, Cell: ref("540@521310")},
			},
			MeasConfig: []rrc.MeasObject{
				{Channels: []int{387410, 398410, 521310}, Event: measpkg.A2(measpkg.QuantityRSRP, -156)},
				{Channels: []int{387410, 398410, 521310}, Event: measpkg.A3(measpkg.QuantityRSRP, 6)},
			},
		})
		l.Append(at(base+2625), rrc.ReconfigComplete{Rat: band.RATNR})
		// "17:47:50.313 – 17:47:57.380 measreports: 45 times" — the bad
		// apple 309@387410 never appears.
		for i := 0; i < 8; i++ {
			l.Append(at(base+2672+i*157), rrc.MeasReport{Rat: band.RATNR, Entries: []rrc.MeasEntry{
				meas("540@501390", rrc.RolePCell, -80.0, -10.5),
				meas("309@398410", rrc.RoleSCell, -83.0, -15.5),
				meas("540@521310", rrc.RoleSCell, -85.5, -10.5),
				meas("380@387410", rrc.RoleCandidate, -77.5, -10.5),
			}})
		}
		l.Append(at(base+9739), rrc.Release{Rat: band.RATNR})
		base += 20000
	}
	sub, loop := classifyLog(t, l)
	if sub != S1E1 {
		t.Fatalf("classified %v, want S1E1", sub)
	}
	off, _ := loop.OffTransition()
	if len(off.Evidence.UnmeasuredSCells) != 1 || off.Evidence.UnmeasuredSCells[0] != ref("309@387410") {
		t.Errorf("bad apple = %v, want 309@387410", off.Evidence.UnmeasuredSCells)
	}
}

// TestAppendixFig28S1E2 — the S1E2 instance: 390@387410 reports
// −108.5 dBm / −25.5 dB, no command follows, everything is released.
func TestAppendixFig28S1E2(t *testing.T) {
	l := &sig.Log{}
	base := 0
	for c := 0; c < 2; c++ {
		l.Append(at(base+100), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("684@501390")})
		l.Append(at(base+489), rrc.Reconfig{
			Rat: band.RATNR, Serving: ref("684@501390"),
			AddSCells: []rrc.SCellEntry{
				{Index: 1, Cell: ref("390@387410")},
				{Index: 2, Cell: ref("390@398410")},
				{Index: 3, Cell: ref("684@521310")},
			},
		})
		l.Append(at(base+499), rrc.ReconfigComplete{Rat: band.RATNR})
		for i := 0; i < 5; i++ {
			l.Append(at(base+577+i*1900), rrc.MeasReport{Rat: band.RATNR, Entries: []rrc.MeasEntry{
				meas("684@501390", rrc.RolePCell, -81.0, -10.5),
				meas("684@521310", rrc.RoleSCell, -80.5, -10.5),
				meas("390@387410", rrc.RoleSCell, -108.5, -25.5),
				meas("390@398410", rrc.RoleSCell, -91.5, -15.0),
				meas("371@387410", rrc.RoleCandidate, -87.5, -11.5),
				meas("380@387410", rrc.RoleCandidate, -93.0, -16.0),
			}})
		}
		// "02:27:24.895 – 02:27:34.473: no command to replace 390@387410"
		l.Append(at(base+10067), rrc.Release{Rat: band.RATNR})
		base += 21000
	}
	sub, loop := classifyLog(t, l)
	if sub != S1E2 {
		t.Fatalf("classified %v, want S1E2", sub)
	}
	off, _ := loop.OffTransition()
	if len(off.Evidence.PoorSCells) != 1 || off.Evidence.PoorSCells[0] != ref("390@387410") {
		t.Errorf("bad apple = %v, want 390@387410", off.Evidence.PoorSCells)
	}
	if off.Evidence.WorstSCellRSRP != -108.5 {
		t.Errorf("worst SCell RSRP = %v", off.Evidence.WorstSCellRSRP)
	}
}

// TestAppendixFig29S1E3 — the S1E3 instance: the command to change
// 273@387410 into 371@387410 fails and every serving cell is released.
func TestAppendixFig29S1E3(t *testing.T) {
	l := &sig.Log{}
	base := 0
	for c := 0; c < 2; c++ {
		l.Append(at(base+100), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("393@501390")})
		l.Append(at(base+743), rrc.Reconfig{
			Rat: band.RATNR, Serving: ref("393@501390"),
			AddSCells: []rrc.SCellEntry{
				{Index: 1, Cell: ref("273@387410")},
				{Index: 2, Cell: ref("273@398410")},
				{Index: 3, Cell: ref("393@521310")},
			},
		})
		l.Append(at(base+753), rrc.ReconfigComplete{Rat: band.RATNR})
		l.Append(at(base+12502), rrc.MeasReport{Rat: band.RATNR, Entries: []rrc.MeasEntry{
			meas("393@501390", rrc.RolePCell, -81.0, -10.5),
			meas("273@387410", rrc.RoleSCell, -85.0, -14.5),
			meas("273@398410", rrc.RoleSCell, -82.0, -10.5),
			meas("393@521310", rrc.RoleSCell, -82.0, -10.5),
			meas("371@387410", rrc.RoleCandidate, -81.0, -11.5),
		}})
		l.Append(at(base+12538), rrc.Reconfig{
			Rat: band.RATNR, Serving: ref("393@501390"),
			AddSCells:     []rrc.SCellEntry{{Index: 4, Cell: ref("371@387410")}},
			ReleaseSCells: []int{1},
		})
		l.Append(at(base+12553), rrc.ReconfigComplete{Rat: band.RATNR})
		l.Append(at(base+12558), rrc.Exception{MMState: "DEREGISTERED", Substate: "NO_CELL_AVAILABLE"})
		base += 24000
	}
	sub, loop := classifyLog(t, l)
	if sub != S1E3 {
		t.Fatalf("classified %v, want S1E3", sub)
	}
	off, _ := loop.OffTransition()
	mod := off.Evidence.PendingMod
	if mod == nil || mod.Released != ref("273@387410") || mod.Added != ref("371@387410") {
		t.Errorf("modification = %+v", mod)
	}
}

// TestAppendixFig30N1E1 — the N1E1 instance: RLF while on 191@66936
// releases 4G and 5G; re-establishment lands on 238@5815, a 5G report
// redirects back to 238@5145 which re-adds the SCG.
func TestAppendixFig30N1E1(t *testing.T) {
	l := &sig.Log{}
	sp := ref("66@632736")
	mob1 := ref("191@66936")
	mob2 := ref("238@5145")
	base := 0
	for c := 0; c < 2; c++ {
		l.Append(at(base+100), rrc.SetupComplete{Rat: band.RATLTE, Cell: ref("238@5145")})
		l.Append(at(base+500), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("238@5145"),
			SpCell: &sp, SCGSCells: []cell.Ref{ref("66@658080")},
			MeasConfig: []rrc.MeasObject{
				{Channels: []int{5145}, Event: measpkg.A2(measpkg.QuantityRSRQ, -19.5)},
				{Channels: []int{5145}, Event: measpkg.A3(measpkg.QuantityRSRQ, 6)},
			}})
		l.Append(at(base+510), rrc.ReconfigComplete{Rat: band.RATLTE})
		l.Append(at(base+3492), rrc.MeasReport{Rat: band.RATLTE, Entries: []rrc.MeasEntry{
			meas("238@5145", rrc.RolePCell, -110.5, -20.0),
			meas("66@632736", rrc.RoleSCell, -115.0, -13.0),
			meas("191@66936", rrc.RoleCandidate, -114.0, -13.5),
		}})
		// Handover to 191@66936 (dropping the SCG), then RLF there.
		l.Append(at(base+3606), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("238@5145"), Mobility: &mob1})
		l.Append(at(base+3616), rrc.ReconfigComplete{Rat: band.RATLTE})
		l.Append(at(base+26142), rrc.ReestablishmentRequest{Cause: rrc.ReestOtherFailure})
		l.Append(at(base+26210), rrc.ReestablishmentComplete{Cell: ref("238@5815")})
		l.Append(at(base+27610), rrc.MeasReport{Rat: band.RATLTE, Entries: []rrc.MeasEntry{
			meas("66@632736", rrc.RoleCandidate, -110.5, -14.5),
			meas("830@632736", rrc.RoleCandidate, -115.5, -17.0),
		}})
		l.Append(at(base+27686), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("238@5815"), Mobility: &mob2})
		l.Append(at(base+27696), rrc.ReconfigComplete{Rat: band.RATLTE})
		base += 28000
	}
	sub, _ := classifyLog(t, l)
	if sub != N1E1 {
		t.Fatalf("classified %v, want N1E1", sub)
	}
}

// TestAppendixFig31N1E2 — the N1E2 instance: a handover toward 97@5145
// fails to complete; the UE re-establishes with handoverFailure and
// wanders across PCells before returning.
func TestAppendixFig31N1E2(t *testing.T) {
	l := &sig.Log{}
	sp := ref("62@174770")
	sp2 := ref("53@632736")
	mob5815 := ref("97@5815")
	mob5145 := ref("97@5145")
	mob850 := ref("47@850")
	base := 0
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATLTE, Cell: ref("47@850")})
	l.Append(at(500), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("47@850"), SpCell: &sp,
		MeasConfig: []rrc.MeasObject{
			{Channels: []int{5815}, Event: measpkg.A5(measpkg.QuantityRSRP, -118, -120)},
		}})
	l.Append(at(510), rrc.ReconfigComplete{Rat: band.RATLTE})
	for c := 0; c < 2; c++ {
		// A5 fires: serving weak, 5815 strong — handover drops the SCG.
		l.Append(at(base+62336), rrc.MeasReport{Rat: band.RATLTE, Entries: []rrc.MeasEntry{
			meas("47@850", rrc.RolePCell, -122.5, -16.5),
			meas("97@5815", rrc.RoleCandidate, -105.0, -16.0),
		}})
		l.Append(at(base+62384), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("47@850"), Mobility: &mob5815})
		l.Append(at(base+62394), rrc.ReconfigComplete{Rat: band.RATLTE})
		// Redirect toward 97@5145 with an SCG — execution fails.
		l.Append(at(base+63030), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("97@5815"),
			Mobility: &mob5145, SpCell: &sp2})
		l.Append(at(base+63446), rrc.ReestablishmentRequest{Cause: rrc.ReestHandoverFailure})
		l.Append(at(base+63548), rrc.ReestablishmentComplete{Cell: ref("310@66486")})
		// Back to the 850 anchor, SCG re-added.
		l.Append(at(base+72400), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("310@66486"), Mobility: &mob850})
		l.Append(at(base+72410), rrc.ReconfigComplete{Rat: band.RATLTE})
		l.Append(at(base+73000), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("47@850"), SpCell: &sp})
		l.Append(at(base+73010), rrc.ReconfigComplete{Rat: band.RATLTE})
		base += 74000
	}
	sub, _ := classifyLog(t, l)
	if sub != N1E2 {
		t.Fatalf("classified %v, want N1E2", sub)
	}
}

// TestAppendixFig32N2E1 — the N2E1 instance: 380@5815 is preferred on
// RSRQ, but any 5G report bounces the PCell back to 380@5145; the SCG
// is lost on each swing.
func TestAppendixFig32N2E1(t *testing.T) {
	l := &sig.Log{}
	sp := ref("53@632736")
	mob5145 := ref("380@5145")
	mob5815 := ref("380@5815")
	base := 0
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATLTE, Cell: ref("380@5815")})
	for c := 0; c < 3; c++ {
		l.Append(at(base+1291), rrc.MeasReport{Rat: band.RATLTE, Entries: []rrc.MeasEntry{
			meas("53@632736", rrc.RoleCandidate, -116.0, -17.0),
		}})
		l.Append(at(base+1364), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("380@5815"), Mobility: &mob5145})
		l.Append(at(base+1374), rrc.ReconfigComplete{Rat: band.RATLTE})
		l.Append(at(base+1500), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("380@5145"), SpCell: &sp,
			SCGSCells: []cell.Ref{ref("53@658080")}})
		l.Append(at(base+1510), rrc.ReconfigComplete{Rat: band.RATLTE})
		// A3 (RSRQ offset) pulls the PCell back to 5815, dropping the SCG.
		l.Append(at(base+16333), rrc.MeasReport{Rat: band.RATLTE, Entries: []rrc.MeasEntry{
			meas("380@5145", rrc.RolePCell, -111.0, -17.5),
			meas("380@5815", rrc.RoleCandidate, -109.0, -15.0),
		}})
		l.Append(at(base+16397), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("380@5145"), Mobility: &mob5815})
		l.Append(at(base+16407), rrc.ReconfigComplete{Rat: band.RATLTE})
		base += 17000
	}
	sub, loop := classifyLog(t, l)
	if sub != N2E1 {
		t.Fatalf("classified %v, want N2E1", sub)
	}
	if loop.Form != FormPersistent {
		t.Errorf("form = %v", loop.Form)
	}
}

// TestAppendixFig33N2E2 — the N2E2 instance: an SCG change fails with
// randomAccessProblem, the SCG is released, and recovery waits ~30 s
// for OPV's configuration push.
func TestAppendixFig33N2E2(t *testing.T) {
	l := &sig.Log{}
	sp188 := ref("188@648672")
	sp393 := ref("393@648672")
	base := 0
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATLTE, Cell: ref("62@1075")})
	l.Append(at(500), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("62@1075"),
		SpCell: &sp188, SCGSCells: []cell.Ref{ref("188@653952")},
		MeasConfig: []rrc.MeasObject{
			{Channels: []int{648672}, Event: measpkg.A2(measpkg.QuantityRSRP, -116)},
			{Channels: []int{648672}, Event: measpkg.A3(measpkg.QuantityRSRP, 5)},
		}})
	l.Append(at(510), rrc.ReconfigComplete{Rat: band.RATLTE})
	for c := 0; c < 2; c++ {
		l.Append(at(base+23463), rrc.MeasReport{Rat: band.RATLTE, Entries: []rrc.MeasEntry{
			meas("188@648672", rrc.RolePSCell, -115.5, -17.5),
			meas("393@648672", rrc.RoleCandidate, -110.0, -14.0),
		}})
		l.Append(at(base+23492), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("62@1075"), SpCell: &sp393})
		l.Append(at(base+23502), rrc.ReconfigComplete{Rat: band.RATLTE})
		l.Append(at(base+23776), rrc.SCGFailureInfo{FailureType: rrc.SCGFailureRandomAccess})
		l.Append(at(base+23819), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("62@1075"), SCGRelease: true})
		l.Append(at(base+23829), rrc.ReconfigComplete{Rat: band.RATLTE})
		// 30.3 s later: fresh configuration, report, SCG recovery.
		l.Append(at(base+54074), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("62@1075"),
			MeasConfig: []rrc.MeasObject{
				{Channels: []int{648672, 653952}, Event: measpkg.B1(measpkg.QuantityRSRP, -115)},
			}})
		l.Append(at(base+54084), rrc.ReconfigComplete{Rat: band.RATLTE})
		l.Append(at(base+54398), rrc.MeasReport{Rat: band.RATLTE, Entries: []rrc.MeasEntry{
			meas("188@648672", rrc.RoleCandidate, -114.0, -15.5),
		}})
		l.Append(at(base+54449), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("62@1075"),
			SpCell: &sp188, SCGSCells: []cell.Ref{ref("188@653952")}})
		l.Append(at(base+54459), rrc.ReconfigComplete{Rat: band.RATLTE})
		base += 55000
	}
	sub, loop := classifyLog(t, l)
	if sub != N2E2 {
		t.Fatalf("classified %v, want N2E2", sub)
	}
	// The OFF period spans the ~30 s configuration wait.
	cycles := loop.Cycles()
	if len(cycles) == 0 || cycles[0].Off < 29*time.Second {
		t.Errorf("OFF = %v, want ≥ 30 s-ish (OPV recovery delay)", cycles[0].Off)
	}
	off, _ := loop.OffTransition()
	if off.Evidence.SCGFailure != rrc.SCGFailureRandomAccess {
		t.Errorf("SCG failure cause = %v", off.Evidence.SCGFailure)
	}
}
