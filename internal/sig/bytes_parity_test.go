package sig

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/mssn/loopscope/internal/faults"
	"github.com/mssn/loopscope/internal/obs"
)

// This file is the parity wall between the []byte streaming parser
// (parse.go) and the retired string parser preserved verbatim in
// reference_test.go: differential fuzzing, corrupted-golden deep
// equality, salvage edge cases, observability counter parity, and the
// steady-state allocation pins that keep the zero-allocation property
// from regressing silently.

// equalValueNaN is reflect.DeepEqual with one change: two NaN floats
// compare equal. Sscanf's %f accepts "NaN", so a fuzzer can legally
// drive NaN into a measurement field through BOTH parsers — identical
// behavior that plain DeepEqual would misreport as divergence.
func equalValueNaN(a, b reflect.Value) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		af, bf := a.Float(), b.Float()
		return af == bf || (math.IsNaN(af) && math.IsNaN(bf))
	case reflect.Ptr, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equalValueNaN(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalValueNaN(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !equalValueNaN(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() || !equalValueNaN(iter.Value(), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !equalValueNaN(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	default:
		// No Complex/Chan/Func values flow through sig events.
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// eventsEquivalent compares two parsed logs NaN-aware.
func eventsEquivalent(a, b *Log) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return equalValueNaN(reflect.ValueOf(a.Events), reflect.ValueOf(b.Events))
}

// parseLog is ParseTo into a fresh Log, shaped like refParse so the
// two parsers compare directly.
func parseLog(r io.Reader, lenient bool, c obs.Collector) (*Log, *Salvage, error) {
	log := &Log{Events: make([]Event, 0, 256)}
	sal, err := ParseTo(r, log, ParseOptions{Lenient: lenient, Metrics: c})
	if err != nil {
		return nil, nil, err
	}
	return log, sal, nil
}

// parseString is Parse over a string.
func parseString(s string) (*Log, error) { return Parse(strings.NewReader(s)) }

// parseLenientString is a lenient parseLog over a string.
func parseLenientString(s string) (*Log, *Salvage, error) {
	return parseLog(strings.NewReader(s), true, nil)
}

// requireByteRefParity parses input with both parsers in the given mode
// and fails the test on any divergence in events, salvage or error.
func requireByteRefParity(t *testing.T, input string, lenient bool) {
	t.Helper()
	gotLog, gotSal, gotErr := parseLog(strings.NewReader(input), lenient, nil)
	refLog, refSal, refErr := refParse(strings.NewReader(input), lenient, nil)
	if (gotErr == nil) != (refErr == nil) {
		t.Fatalf("error presence diverges: byte=%v reference=%v", gotErr, refErr)
	}
	if gotErr != nil && gotErr.Error() != refErr.Error() {
		t.Fatalf("error text diverges:\n  byte: %s\n   ref: %s", gotErr, refErr)
	}
	if gotErr != nil {
		return
	}
	if !eventsEquivalent(gotLog, refLog) {
		t.Fatalf("events diverge: byte kept %d, reference %d (or contents differ)",
			gotLog.Len(), refLog.Len())
	}
	if !reflect.DeepEqual(gotSal, refSal) {
		t.Fatalf("salvage diverges:\n  byte: %+v\n   ref: %+v", gotSal, refSal)
	}
}

// FuzzParseBytes is the differential fuzzer for the tentpole: on
// arbitrary input, the []byte parser and the preserved string parser
// must agree on every kept event, every salvage figure and every error
// message, in both strict and lenient mode.
func FuzzParseBytes(f *testing.F) {
	f.Add(sampleLog().String(), true)
	f.Add(sampleLog().String(), false)
	f.Add("", true)
	// Interning-relevant shapes: one cell line repeated across many
	// events, and runs of identical message names.
	rep := strings.Repeat(
		"00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n"+
			"  Physical Cell ID = 393, Freq = 521310\n", 16)
	f.Add(rep, true)
	f.Add(strings.Repeat("00:00:02.000 LTE RRC OTA Packet -- UL_DCCH / RRCConnectionReconfigurationComplete\n", 12), true)
	// CRLF/LF mixes, including a bare CR inside a token (Sscanf treats
	// \r as white space; the fast paths must fall back, not diverge).
	f.Add("00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\r\n"+
		"  Physical Cell ID = 393, Freq = 521310\r\n"+
		"00:00:02.000 LTE RRC OTA Packet -- DL_DCCH / RRCConnectionRelease\n", true)
	f.Add("00:00:03.000 SYS -- EXCEPTION\n  mm5g_state DEREGISTERED,\r substate NO_CELL_AVAILABLE\n", true)
	// Numeric edges: overflow-length digit runs, signs, long mantissas,
	// NaN through %f, leading-space header quirk.
	f.Add("00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n"+
		"  Physical Cell ID = 99999999999999999999, Freq = +521310\n", true)
	f.Add("00:00:01.000 LTE RRC OTA Packet -- UL_DCCH / MeasurementReport\n"+
		"  cell 393@521310, rsrp NaN, rsrq -12.50000000000000001\n", true)
	f.Add(" 00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n"+
		"  Physical Cell ID = 393, Freq = 521310", true)
	// Truncated final line without EOL and a garbled header mid-capture.
	f.Add("00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n"+
		"  Physical Cell ID = 393, Freq = 521310\n"+
		"00:00:02.0", true)
	f.Add("00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n"+
		"\x00\xff garbled \x80 header\n"+
		"  Physical Cell ID = 393, Freq = 521310\n", true)
	if data, err := os.ReadFile(filepath.Join("testdata", "corrupt_garbled.log")); err == nil {
		f.Add(string(data), true)
	}
	f.Fuzz(func(t *testing.T, input string, lenient bool) {
		requireByteRefParity(t, input, lenient)
	})
}

// TestByteParserMatchesReferenceOnGoldens locks byte-parser ≡
// reference-parser over every golden capture, clean and corrupted, in
// both modes — including deep-equal Salvage reports on the corrupted
// set (the ISSUE's corrupted-golden anchor).
func TestByteParserMatchesReferenceOnGoldens(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.log"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden captures found: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []struct {
			name    string
			lenient bool
		}{{"lenient", true}, {"strict", false}} {
			t.Run(filepath.Base(file)+"/"+mode.name, func(t *testing.T) {
				requireByteRefParity(t, string(data), mode.lenient)
			})
		}
	}
}

// TestSalvageEdgesByteVsReference pins the awkward capture endings and
// mid-stream damage shapes the scanner rewrite could plausibly have
// changed: a final line truncated without a terminator, a garbled
// header in the middle of a capture, and an oversized line as the very
// last line of the stream (with and without its newline).
func TestSalvageEdgesByteVsReference(t *testing.T) {
	clean, err := os.ReadFile(filepath.Join("testdata", "s1e3_capture.log"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(clean)
	huge := strings.Repeat("x", maxLineBytes+7)
	cases := map[string]string{
		"truncated final line, no EOL": strings.TrimSuffix(text, "\n")[:len(text)-9],
		"garbled header mid-capture": strings.Replace(text,
			"RRC OTA Packet", "R\x00C \xffTA P\x80cket", 1),
		"oversized last line with EOL":    text + huge + "\n",
		"oversized last line without EOL": text + huge,
		"oversized only line without EOL": huge,
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			requireByteRefParity(t, input, true)
		})
	}
}

// TestOversizedFinalLineNotSwallowed: a capture whose oversized line is
// the last line — unterminated — still produces a skipped-line salvage
// entry and an oversized-counter hit, not a silent EOF.
func TestOversizedFinalLineNotSwallowed(t *testing.T) {
	input := "00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n" +
		"  Physical Cell ID = 393, Freq = 521310\n" +
		strings.Repeat("j", maxLineBytes+1) // no trailing newline
	reg := obs.NewRegistry()
	log, sal, err := parseLog(strings.NewReader(input), true, reg)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != 1 {
		t.Fatalf("kept %d events, want 1", log.Len())
	}
	if sal.LinesSkipped != 1 {
		t.Errorf("LinesSkipped = %d, want 1 (the oversized final line)", sal.LinesSkipped)
	}
	if got := reg.Counter("sig.lines.oversized").Value(); got != 1 {
		t.Errorf("sig.lines.oversized = %d, want 1", got)
	}
	if len(sal.Errors) == 0 {
		t.Fatal("salvage has no quarantine entry for the oversized final line")
	}
	last := sal.Errors[len(sal.Errors)-1]
	if !strings.Contains(last.Err.Error(), "4 MiB") {
		t.Errorf("last salvage entry = %v, want the line-too-long cause", last)
	}
}

// TestObservedCounterParityByteVsReference: the flushed obs counters of
// the two parsers agree on a corrupted capture.
func TestObservedCounterParityByteVsReference(t *testing.T) {
	clean, err := os.ReadFile(filepath.Join("testdata", "s1e3_capture.log"))
	if err != nil {
		t.Fatal(err)
	}
	corrupted := faults.New(7, faults.Profile(0.10)).Corrupt(string(clean))
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	if _, _, err := parseLog(strings.NewReader(corrupted), true, regA); err != nil {
		t.Fatal(err)
	}
	if _, _, err := refParse(strings.NewReader(corrupted), true, regB); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"sig.lines.read", "sig.lines.oversized", "sig.lines.skipped",
		"sig.records.dropped", "sig.events.kept",
	} {
		if got, want := regA.Counter(name).Value(), regB.Counter(name).Value(); got != want {
			t.Errorf("%s = %d (byte), want %d (reference)", name, got, want)
		}
	}
}

// TestTeeSeesExactlyKeptEvents: a sink handed to ParseTo receives
// exactly the events the reference parser keeps, in the same order, and
// EventsKept counts exactly the deliveries.
func TestTeeSeesExactlyKeptEvents(t *testing.T) {
	clean, err := os.ReadFile(filepath.Join("testdata", "s1e3_capture.log"))
	if err != nil {
		t.Fatal(err)
	}
	corrupted := faults.New(3, faults.Profile(0.10)).Corrupt(string(clean))
	var teed Log
	sal, err := ParseTo(strings.NewReader(corrupted), &teed, ParseOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := refParse(strings.NewReader(corrupted), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !eventsEquivalent(&teed, ref) {
		t.Fatalf("sink saw %d events, reference kept %d (or order/content differs)",
			teed.Len(), ref.Len())
	}
	if sal.EventsKept != teed.Len() {
		t.Fatalf("EventsKept = %d, sink saw %d", sal.EventsKept, teed.Len())
	}
}

// TestLineScannerZeroAllocsSteadyState pins the scanner's central
// property: after warm-up, yielding lines allocates nothing — neither
// on the zero-copy fast path nor on the CRLF trim.
func TestLineScannerZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by race instrumentation")
	}
	data := bytes.Repeat([]byte(
		"00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\r\n"+
			"  Physical Cell ID = 393, Freq = 521310\n"), 64)
	rd := bytes.NewReader(data)
	br := bufio.NewReaderSize(rd, 64<<10)
	s := &lineScanner{br: br, max: maxLineBytes}
	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(data)
		br.Reset(rd)
		for {
			if _, _, err := s.next(); err == io.EOF {
				return
			}
		}
	})
	if allocs != 0 {
		t.Errorf("lineScanner.next allocates %.1f times per capture sweep, want 0", allocs)
	}
}

// TestLineScannerZeroAllocsMultiChunk: lines spanning bufio windows use
// the reused assembly buffer — steady-state zero allocations there too.
func TestLineScannerZeroAllocsMultiChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by race instrumentation")
	}
	line := bytes.Repeat([]byte("y"), 1<<14) // 16 KiB line, 4 KiB window
	data := bytes.Join([][]byte{line, line, line}, []byte("\n"))
	rd := bytes.NewReader(data)
	br := bufio.NewReaderSize(rd, 4<<10)
	s := &lineScanner{br: br, max: maxLineBytes}
	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(data)
		br.Reset(rd)
		for {
			if _, _, err := s.next(); err == io.EOF {
				return
			}
		}
	})
	if allocs != 0 {
		t.Errorf("multi-chunk next allocates %.1f times per sweep, want 0", allocs)
	}
}

// TestParseSteadyStateAllocsPerLine pins the whole parse loop's
// steady-state allocation budget on a clean golden capture: the
// remaining allocations are per-EVENT (interface boxing in Log.Append,
// message-internal slices) and per-parse (the Log, the flush closure),
// never per-LINE. The bound is deliberately expressed per line so a
// reintroduced per-line copy (the old trimEOL, a map store on the hot
// path) trips it immediately: the capture has ~3 lines per event, so
// per-line parasitic allocations triple the figure.
func TestParseSteadyStateAllocsPerLine(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by race instrumentation")
	}
	data, err := os.ReadFile(filepath.Join("testdata", "s1e3_capture.log"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(data, []byte("\n"))
	if lines == 0 {
		t.Fatal("empty golden")
	}
	rd := bytes.NewReader(data)
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(data)
		if _, _, err := parseLog(rd, true, nil); err != nil {
			t.Fatal(err)
		}
	})
	perLine := allocs / float64(lines)
	if perLine > 1.0 {
		t.Errorf("parse allocates %.2f per line (%.0f total over %d lines), want ≤ 1.0 — a per-line allocation crept back into the hot loop",
			perLine, allocs, lines)
	}
}
