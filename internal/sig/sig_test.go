package sig

import (
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/meas"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/units"
)

func ref(s string) cell.Ref { return cell.MustRef(s) }

// sampleLog builds one log exercising every message type, modeled on the
// appendix's S1E3 walkthrough (Figures 24–26) plus NSA messages.
func sampleLog() *Log {
	l := &Log{}
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spCell := ref("53@632736")
	mob := ref("97@5145")

	l.Append(at(1635), rrc.MIB{Rat: band.RATNR, Cell: ref("393@521310")})
	l.Append(at(1690), rrc.SIB1{Rat: band.RATNR, Cell: ref("393@521310"), ThreshRSRPDBm: -108})
	l.Append(at(1708), rrc.SetupRequest{Rat: band.RATNR, Cell: ref("393@521310")})
	l.Append(at(1827), rrc.Setup{Rat: band.RATNR, Cell: ref("393@521310")})
	l.Append(at(1834), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("393@521310")})
	l.Append(at(4361), rrc.Reconfig{
		Rat:     band.RATNR,
		Serving: ref("393@521310"),
		AddSCells: []rrc.SCellEntry{
			{Index: 1, Cell: ref("273@387410")},
			{Index: 2, Cell: ref("273@398410")},
			{Index: 3, Cell: ref("393@501390")},
		},
		MeasConfig: []rrc.MeasObject{
			{Channels: []int{387410, 398410, 521310}, Event: meas.A2(meas.QuantityRSRP, -156)},
			{Channels: []int{387410}, Event: meas.A3(meas.QuantityRSRP, 6)},
		},
	})
	l.Append(at(4376), rrc.ReconfigComplete{Rat: band.RATNR})
	l.Append(at(5100), rrc.MeasReport{Rat: band.RATNR, Entries: []rrc.MeasEntry{
		{Cell: ref("393@521310"), Role: rrc.RolePCell, Meas: meas.Measurement{RSRPDBm: -81, RSRQDB: -10.5}},
		{Cell: ref("273@387410"), Role: rrc.RoleSCell, Meas: meas.Measurement{RSRPDBm: -85, RSRQDB: -14.5}},
		{Cell: ref("371@387410"), Role: rrc.RoleCandidate, Meas: meas.Measurement{RSRPDBm: -81, RSRQDB: -11.5}},
	}})
	l.Append(at(6976), rrc.Reconfig{
		Rat:           band.RATNR,
		Serving:       ref("393@521310"),
		AddSCells:     []rrc.SCellEntry{{Index: 3, Cell: ref("371@387410")}},
		ReleaseSCells: []int{1},
	})
	l.Append(at(6991), rrc.ReconfigComplete{Rat: band.RATNR})
	l.Append(at(6996), rrc.Exception{MMState: "DEREGISTERED", Substate: "NO_CELL_AVAILABLE"})

	// NSA side.
	l.Append(at(20000), rrc.SetupRequest{Rat: band.RATLTE, Cell: ref("380@5145")})
	l.Append(at(20050), rrc.Setup{Rat: band.RATLTE, Cell: ref("380@5145")})
	l.Append(at(20060), rrc.SetupComplete{Rat: band.RATLTE, Cell: ref("380@5145")})
	l.Append(at(21000), rrc.Reconfig{
		Rat:       band.RATLTE,
		Serving:   ref("380@5145"),
		SpCell:    &spCell,
		SCGSCells: []cell.Ref{ref("53@658080")},
		MeasConfig: []rrc.MeasObject{
			{Channels: []int{632736, 658080}, Event: meas.B1(meas.QuantityRSRP, -115)},
			{Channels: []int{5815}, Event: meas.A5(meas.QuantityRSRP, -118, -120)},
		},
	})
	l.Append(at(21500), rrc.SCGFailureInfo{FailureType: rrc.SCGFailureRandomAccess})
	l.Append(at(21600), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("380@5145"), SCGRelease: true})
	l.Append(at(22000), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("380@5145"), Mobility: &mob})
	l.Append(at(23000), rrc.ReestablishmentRequest{Cause: rrc.ReestHandoverFailure})
	l.Append(at(23100), rrc.ReestablishmentComplete{Cell: ref("310@66486")})
	l.Append(at(24000), rrc.Release{Rat: band.RATLTE})
	return l
}

func TestRoundTrip(t *testing.T) {
	orig := sampleLog()
	text := orig.String()
	parsed, err := parseString(text)
	if err != nil {
		t.Fatalf("Parse: %v\nlog:\n%s", err, text)
	}
	if parsed.Len() != orig.Len() {
		t.Fatalf("event count: got %d, want %d", parsed.Len(), orig.Len())
	}
	for i := range orig.Events {
		if orig.Events[i].At != parsed.Events[i].At {
			t.Errorf("event %d time: got %v, want %v", i, parsed.Events[i].At, orig.Events[i].At)
		}
		if !reflect.DeepEqual(orig.Events[i].Msg, parsed.Events[i].Msg) {
			t.Errorf("event %d mismatch:\n got: %#v\nwant: %#v", i, parsed.Events[i].Msg, orig.Events[i].Msg)
		}
	}
}

func TestTimestampFormat(t *testing.T) {
	cases := map[time.Duration]string{
		0:                       "00:00:00.000",
		1500 * time.Millisecond: "00:00:01.500",
		61 * time.Second:        "00:01:01.000",
		time.Hour + 2*time.Minute + 3*time.Second: "01:02:03.000",
	}
	for d, want := range cases {
		if got := Timestamp(d); got != want {
			t.Errorf("Timestamp(%v) = %q, want %q", d, got, want)
		}
		back, err := parseTimestamp(want)
		if err != nil || back != d {
			t.Errorf("parseTimestamp(%q) = %v, %v", want, back, err)
		}
	}
	if _, err := parseTimestamp("garbage"); err == nil {
		t.Error("parseTimestamp should reject garbage")
	}
	if _, err := parseTimestamp("00:99:00.000"); err == nil {
		t.Error("parseTimestamp should reject out-of-range minutes")
	}
}

func TestHeaderShapeMatchesNSG(t *testing.T) {
	l := &Log{}
	l.Append(0, rrc.MIB{Rat: band.RATNR, Cell: ref("393@521310")})
	text := l.String()
	// A broadcast sighting carries CGI 0, like the appendix's Fig. 24.
	want := "00:00:00.000 NR5G RRC OTA Packet -- BCCH_BCH / MIB\n" +
		"  Physical Cell ID = 393, NR Cell Global ID = 0, Freq = 521310\n"
	if text != want {
		t.Errorf("emitted:\n%q\nwant:\n%q", text, want)
	}
}

func TestCGILinesRoundTripAndShape(t *testing.T) {
	l := &Log{}
	l.Append(0, rrc.SetupRequest{Rat: band.RATNR, Cell: ref("393@521310")})
	text := l.String()
	if !strings.Contains(text, "NR Cell Global ID = ") || strings.Contains(text, "Global ID = 0,") {
		t.Errorf("used NR cell should print a nonzero CGI: %q", text)
	}
	parsed, err := parseString(text)
	if err != nil {
		t.Fatal(err)
	}
	got := parsed.Events[0].Msg.(rrc.SetupRequest)
	if got.Cell != ref("393@521310") {
		t.Errorf("round trip lost the cell: %v", got.Cell)
	}
	// LTE messages keep the short form.
	l2 := &Log{}
	l2.Append(0, rrc.SetupRequest{Rat: band.RATLTE, Cell: ref("380@5145")})
	if strings.Contains(l2.String(), "NR Cell Global ID") {
		t.Error("LTE line should not carry an NR CGI")
	}
}

func TestParseToleratesForeignLines(t *testing.T) {
	text := "some unrelated preamble\n" +
		"00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n" +
		"  Physical Cell ID = 393, Freq = 521310\n" +
		"qualcomm diagnostics chatter 0xdeadbeef\n" +
		"00:00:02.000 NR5G RRC OTA Packet -- DL_CCCH / RRCSetup\n" +
		"  Physical Cell ID = 393, Freq = 521310\n"
	l, err := parseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 {
		t.Fatalf("got %d events, want 2", l.Len())
	}
}

func TestParseRejectsMalformedDetail(t *testing.T) {
	text := "00:00:01.000 NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration\n" +
		"  Physical Cell ID = 393, Freq = 521310\n" +
		"  sCellToAddModList {sCellIndex one, physCellId 273, absoluteFrequencySSB 387410}\n"
	_, err := parseString(text)
	if err == nil {
		t.Fatal("expected error for malformed sCellToAddModList")
	}
	var pe *ParseError
	if !strings.Contains(err.Error(), "sCellToAddModList") {
		t.Errorf("error should mention the field: %v", err)
	}
	if pe, _ = err.(*ParseError); pe == nil {
		t.Errorf("error should be *ParseError, got %T", err)
	} else if pe.Unwrap() == nil {
		t.Error("ParseError should wrap a cause")
	}
}

func TestParseRejectsUnknownKind(t *testing.T) {
	text := "00:00:01.000 NR5G RRC OTA Packet -- DL_DCCH / MartianMessage\n"
	if _, err := parseString(text); err == nil {
		t.Fatal("expected error for unknown message kind")
	}
}

func TestParseEventConfig(t *testing.T) {
	for _, ev := range []meas.EventConfig{
		meas.A2(meas.QuantityRSRP, -156),
		meas.A2(meas.QuantityRSRQ, -19.5),
		meas.A3(meas.QuantityRSRQ, 6),
		meas.A3(meas.QuantityRSRP, 5),
		meas.A5(meas.QuantityRSRP, -118, -120),
		meas.B1(meas.QuantityRSRP, -115),
	} {
		got, err := ParseEventConfig(ev.String())
		if err != nil {
			t.Errorf("ParseEventConfig(%q): %v", ev.String(), err)
			continue
		}
		if got != ev {
			t.Errorf("round trip %q: got %+v, want %+v", ev.String(), got, ev)
		}
	}
	for _, bad := range []string{"", "A9 RSRP < -1dBm", "A2 WAT < -1dBm", "A2 RSRP <", "A3 RSRP > 6dB"} {
		if _, err := ParseEventConfig(bad); err == nil {
			t.Errorf("ParseEventConfig(%q) should fail", bad)
		}
	}
}

func TestLogDuration(t *testing.T) {
	l := &Log{}
	if l.Duration() != 0 {
		t.Error("empty log duration")
	}
	l.Append(5*time.Second, rrc.Release{Rat: band.RATNR})
	if l.Duration() != 5*time.Second {
		t.Errorf("Duration = %v", l.Duration())
	}
}

func TestMeasReportFind(t *testing.T) {
	m := rrc.MeasReport{Entries: []rrc.MeasEntry{
		{Cell: ref("1@2"), Role: rrc.RolePCell},
	}}
	if _, ok := m.Find(ref("1@2")); !ok {
		t.Error("Find should locate the entry")
	}
	if _, ok := m.Find(ref("3@4")); ok {
		t.Error("Find should miss absent cells")
	}
}

// TestRoundTripProperty: randomly composed valid message sequences
// survive the emit→parse round trip exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		orig := &Log{}
		now := time.Duration(0)
		randRef := func() cell.Ref {
			return cell.Ref{PCI: 1 + rng.Intn(1007), Channel: 1 + rng.Intn(700000)}
		}
		for i := 0; i < int(n%30)+1; i++ {
			now += time.Duration(1+rng.Intn(5000)) * time.Millisecond
			switch rng.Intn(8) {
			case 0:
				orig.Append(now, rrc.SetupComplete{Rat: band.RATNR, Cell: randRef()})
			case 1:
				sp := randRef()
				orig.Append(now, rrc.Reconfig{Rat: band.RATLTE, Serving: randRef(),
					SpCell: &sp, SCGSCells: []cell.Ref{randRef()}})
			case 2:
				orig.Append(now, rrc.Reconfig{Rat: band.RATNR, Serving: randRef(),
					AddSCells:     []rrc.SCellEntry{{Index: 1 + rng.Intn(7), Cell: randRef()}},
					ReleaseSCells: []int{1 + rng.Intn(7)}})
			case 3:
				orig.Append(now, rrc.MeasReport{Rat: band.RATNR, Entries: []rrc.MeasEntry{
					// The wire format carries one decimal; generate
					// values on that grid so equality is exact.
					{Cell: randRef(), Role: rrc.RoleSCell,
						Meas: meas.Measurement{
							RSRPDBm: units.DBm(-80 - float64(rng.Intn(500))/10),
							RSRQDB:  units.DB(-10 - float64(rng.Intn(150))/10),
						}},
				}})
			case 4:
				orig.Append(now, rrc.SCGFailureInfo{FailureType: rrc.SCGFailureRandomAccess})
			case 5:
				orig.Append(now, rrc.ReestablishmentRequest{Cause: rrc.ReestHandoverFailure})
			case 6:
				orig.Append(now, rrc.Release{Rat: band.RATLTE})
			case 7:
				orig.Append(now, rrc.Exception{MMState: "DEREGISTERED", Substate: "NO_CELL_AVAILABLE"})
			}
		}
		parsed, err := parseString(orig.String())
		if err != nil || parsed.Len() != orig.Len() {
			return false
		}
		for i := range orig.Events {
			if orig.Events[i].At != parsed.Events[i].At {
				return false
			}
			if !reflect.DeepEqual(orig.Events[i].Msg, parsed.Events[i].Msg) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// FuzzParse hardens the parser against arbitrary input: it must never
// panic, and anything it accepts must re-emit and re-parse to the same
// event count (run with `go test -fuzz=FuzzParse ./internal/sig/`).
func FuzzParse(f *testing.F) {
	f.Add(sampleLog().String())
	f.Add("00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n  Physical Cell ID = 1, Freq = 2\n")
	f.Add("garbage\n\n  indented orphan\n99:99:99.999 nonsense")
	f.Fuzz(func(t *testing.T, input string) {
		l, err := parseString(input)
		if err != nil {
			return
		}
		re, err := parseString(l.String())
		if err != nil {
			t.Fatalf("accepted log failed to re-parse: %v", err)
		}
		if re.Len() != l.Len() {
			t.Fatalf("re-parse changed event count: %d vs %d", re.Len(), l.Len())
		}
	})
}

// TestGoldenCapture parses the checked-in S1E3 capture fixture — the
// format's reference document — and verifies the full pipeline result.
func TestGoldenCapture(t *testing.T) {
	f, err := os.Open("testdata/s1e3_capture.log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != 305 {
		t.Errorf("events = %d, want 305", log.Len())
	}
	if log.Duration() != 5*time.Minute {
		t.Errorf("duration = %v", log.Duration())
	}
	// Round trip the whole file byte-for-byte.
	data, err := os.ReadFile("testdata/s1e3_capture.log")
	if err != nil {
		t.Fatal(err)
	}
	if log.String() != string(data) {
		t.Error("golden capture does not re-emit identically")
	}
}
