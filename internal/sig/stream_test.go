package sig

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/mssn/loopscope/internal/faults"
)

// streamProfiles are the corruption configurations every parity test
// sweeps: clean pass-through, line-level-only, structural-only and the
// full field profile.
var streamProfiles = []struct {
	name  string
	seed  int64
	rates faults.Rates
}{
	{"clean", 11, faults.Rates{}},
	{"uniform10", 12, faults.Uniform(0.10)},
	{"garbleheavy", 13, faults.Rates{GarbleField: 0.3}},
	{"structural", 14, faults.Rates{ClockJump: 0.1, ReorderSwap: 0.1, Restart: 1, Truncate: 1}},
	{"profile10", 15, faults.Profile(0.10)},
}

// corruptStreamed drains a streaming-corrupted copy of text.
func corruptStreamed(t *testing.T, seed int64, rates faults.Rates, text string) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, faults.New(seed, rates).Reader(strings.NewReader(text))); err != nil {
		t.Fatalf("streamed corruption errored: %v", err)
	}
	return buf.String()
}

// TestStreamParityGoldens locks byte- and result-parity between the
// string pipeline (Corrupt → lenient parse of the string) and the streaming one
// (Injector.Reader → lenient ParseTo) over every golden capture in
// testdata, for each corruption profile.
func TestStreamParityGoldens(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.log"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden captures found: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, p := range streamProfiles {
			t.Run(filepath.Base(file)+"/"+p.name, func(t *testing.T) {
				want := faults.New(p.seed, p.rates).Corrupt(text)
				got := corruptStreamed(t, p.seed, p.rates, text)
				if want != got {
					t.Fatalf("streamed corruption diverges from Corrupt: %d vs %d bytes", len(got), len(want))
				}

				logA, salA, err := parseLenientString(want)
				if err != nil {
					t.Fatal(err)
				}
				logB, salB, err := parseLog(
					faults.New(p.seed, p.rates).Reader(strings.NewReader(text)), true, nil)
				if err != nil {
					t.Fatalf("streamed lenient parse errored: %v", err)
				}
				if !reflect.DeepEqual(logA.Events, logB.Events) {
					t.Errorf("streamed parse kept %d events, string parse %d (or contents differ)",
						logB.Len(), logA.Len())
				}
				if !reflect.DeepEqual(salA, salB) {
					t.Errorf("salvage reports differ:\n string: %+v\n stream: %+v", salA, salB)
				}
			})
		}
	}
}

// TestStreamedEmitCorruptParseParity covers the full production shape:
// events emitted one at a time through an Emitter into a pipe, corrupted
// in flight, and parsed concurrently — against the materialized
// String() → Corrupt → lenient string parse path.
func TestStreamedEmitCorruptParseParity(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "s1e3_capture.log"))
	if err != nil {
		t.Fatal(err)
	}
	src, err := parseString(string(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range streamProfiles {
		t.Run(p.name, func(t *testing.T) {
			logA, salA, err := parseLenientString(
				faults.New(p.seed, p.rates).Corrupt(src.String()))
			if err != nil {
				t.Fatal(err)
			}

			pr, pw := io.Pipe()
			go func() {
				em := NewEmitter(pw)
				for _, ev := range src.Events {
					if em.Emit(ev.At, ev.Msg) != nil {
						break
					}
				}
				pw.CloseWithError(em.Close())
			}()
			logB, salB, err := parseLog(faults.New(p.seed, p.rates).Reader(pr), true, nil)
			if err != nil {
				t.Fatalf("piped parse errored: %v", err)
			}

			if !reflect.DeepEqual(logA.Events, logB.Events) {
				t.Errorf("piped pipeline kept %d events, string pipeline %d (or contents differ)",
					logB.Len(), logA.Len())
			}
			if !reflect.DeepEqual(salA, salB) {
				t.Errorf("salvage reports differ:\n string: %+v\n stream: %+v", salA, salB)
			}
		})
	}
}

// TestEmitterMatchesWriteTo: event-at-a-time emission is byte-identical
// to the whole-log renderers, and BytesWritten agrees.
func TestEmitterMatchesWriteTo(t *testing.T) {
	log := sampleLog()
	var streamed bytes.Buffer
	em := NewEmitter(&streamed)
	for _, ev := range log.Events {
		if err := em.Emit(ev.At, ev.Msg); err != nil {
			t.Fatal(err)
		}
	}
	n := em.BytesWritten()
	if err := em.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := streamed.String(), log.String(); got != want {
		t.Errorf("Emitter output diverges from String(): %d vs %d bytes", len(got), len(want))
	}
	if n != int64(streamed.Len()) {
		t.Errorf("BytesWritten = %d, wrote %d", n, streamed.Len())
	}
}

// failAfterWriter fails every write once n bytes have passed through.
type failAfterWriter struct {
	n   int
	err error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestEmitterStickyError: the first write failure surfaces on Emit and
// again on Close, and later events are dropped, not half-written.
func TestEmitterStickyError(t *testing.T) {
	wantErr := io.ErrClosedPipe
	em := NewEmitter(&failAfterWriter{n: 16, err: wantErr})
	log := sampleLog()
	var firstErr error
	for _, ev := range log.Events {
		if err := em.Emit(ev.At, ev.Msg); err != nil {
			firstErr = err
			break
		}
	}
	// The 16-byte window is smaller than the 32 KiB flush buffer, so the
	// failure may only surface at Flush time.
	if closeErr := em.Close(); firstErr == nil && closeErr != wantErr {
		t.Fatalf("Close error = %v, want %v", closeErr, wantErr)
	} else if firstErr != nil && firstErr != wantErr {
		t.Fatalf("Emit error = %v, want %v", firstErr, wantErr)
	}
}

// FuzzStreamParity: for arbitrary input text and fault configuration,
// the streaming corruptor is byte-identical to Corrupt and the two
// lenient-parse results agree.
func FuzzStreamParity(f *testing.F) {
	f.Add(sampleLog().String(), int64(1), 0.1)
	f.Add("", int64(2), 0.5)
	f.Add("garbage\n\n  indented orphan\n99:99:99.999 nonsense", int64(3), 0.9)
	f.Add("00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n  Physical Cell ID = 393, Freq = 521310", int64(4), 1.0)
	if data, err := os.ReadFile(filepath.Join("testdata", "corrupt_restart.log")); err == nil {
		f.Add(string(data), int64(5), 0.2)
	}
	// Interning-relevant shapes: one cell line shared by many events and
	// runs of identical message names — the memo/intern tables must not
	// leak state between pooled parses under corruption.
	f.Add(strings.Repeat(
		"00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n"+
			"  Physical Cell ID = 393, Freq = 521310\n", 12), int64(6), 0.15)
	f.Add(strings.Repeat("00:00:02.000 LTE RRC OTA Packet -- DL_DCCH / RRCConnectionRelease\n", 10), int64(7), 0.3)
	// CRLF/LF mixes: the byte-path EOL trim must agree with the string
	// path whatever terminator the corruptor leaves behind.
	f.Add("00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\r\n"+
		"  Physical Cell ID = 393, Freq = 521310\r\n"+
		"00:00:02.000 SYS -- EXCEPTION\n  mm5g_state DEREGISTERED, substate NO_CELL_AVAILABLE\r\n", int64(8), 0.25)
	// A line past the 4 MiB cap: oversized resync under corruption.
	f.Add("00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n"+
		"  Physical Cell ID = 393, Freq = 521310\n"+
		strings.Repeat("z", maxLineBytes+3)+"\n", int64(9), 0.05)
	f.Fuzz(func(t *testing.T, input string, seed int64, rate float64) {
		if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
			rate = 0
		}
		if rate > 1 {
			rate = 1
		}
		rates := faults.Profile(rate)
		want := faults.New(seed, rates).Corrupt(input)
		var buf bytes.Buffer
		if _, err := io.Copy(&buf, faults.New(seed, rates).Reader(strings.NewReader(input))); err != nil {
			t.Fatalf("streamed corruption errored: %v", err)
		}
		if got := buf.String(); got != want {
			t.Fatalf("streamed corruption diverges from Corrupt:\n got %q\nwant %q", got, want)
		}
		logA, salA, err := parseLenientString(want)
		if err != nil {
			t.Fatal(err)
		}
		logB, salB, err := parseLog(faults.New(seed, rates).Reader(strings.NewReader(input)), true, nil)
		if err != nil {
			t.Fatalf("streamed lenient parse errored: %v", err)
		}
		// NaN-aware: Sscanf's %f accepts "NaN", and corruption can forge
		// one; both paths then hold NaN, which DeepEqual misreports.
		if !eventsEquivalent(logA, logB) || !reflect.DeepEqual(salA, salB) {
			t.Fatalf("streamed parse result diverges: %d/%+v vs %d/%+v",
				logB.Len(), salB, logA.Len(), salA)
		}
	})
}
