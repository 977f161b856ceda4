package sig

import (
	"os"
	"strings"
	"testing"

	"github.com/mssn/loopscope/internal/faults"
	"github.com/mssn/loopscope/internal/obs"
)

// TestParseObservedParity: attaching a collector changes nothing about
// the parsed log — only the counters appear.
func TestParseObservedParity(t *testing.T) {
	data, err := os.ReadFile("testdata/s1e3_capture.log")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Parse(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	observed, err := ParseObserved(strings.NewReader(string(data)), reg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != observed.String() {
		t.Fatal("observed parse produced a different log")
	}
	if got := reg.Counter("sig.events.kept").Value(); got != int64(plain.Len()) {
		t.Errorf("sig.events.kept = %d, want %d", got, plain.Len())
	}
	if got := reg.Counter("sig.lines.read").Value(); got == 0 {
		t.Error("sig.lines.read = 0, want the file's line count")
	}
	if got := reg.Counter("sig.lines.skipped").Value(); got != 0 {
		t.Errorf("sig.lines.skipped = %d on a clean capture, want 0", got)
	}
}

// TestParseLenientObservedCountersMatchSalvage: the flushed counters
// agree with the salvage report the same parse returns.
func TestParseLenientObservedCountersMatchSalvage(t *testing.T) {
	clean, err := os.ReadFile("testdata/s1e3_capture.log")
	if err != nil {
		t.Fatal(err)
	}
	corrupted := faults.New(7, faults.Uniform(0.05)).Corrupt(string(clean))
	reg := obs.NewRegistry()
	log, sal, err := parseLog(strings.NewReader(corrupted), true, reg)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != sal.EventsKept {
		t.Fatalf("log has %d events, salvage says %d", log.Len(), sal.EventsKept)
	}
	for name, want := range map[string]int64{
		"sig.events.kept":     int64(sal.EventsKept),
		"sig.lines.skipped":   int64(sal.LinesSkipped),
		"sig.records.dropped": int64(sal.RecordsDropped),
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d (the salvage report's figure)", name, got, want)
		}
	}
	// Counters accumulate across parses on a shared registry.
	if _, _, err := parseLog(strings.NewReader(corrupted), true, reg); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Counter("sig.events.kept").Value(), int64(2*sal.EventsKept); got != want {
		t.Errorf("after second parse sig.events.kept = %d, want %d", got, want)
	}
}

// TestParseObservedCountsOversized: the oversized-line guard feeds the
// sig.lines.oversized counter.
func TestParseObservedCountsOversized(t *testing.T) {
	huge := strings.Repeat("x", maxLineBytes+10) + "\n"
	reg := obs.NewRegistry()
	_, sal, err := parseLog(strings.NewReader(huge), true, reg)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sig.lines.oversized").Value(); got != 1 {
		t.Errorf("sig.lines.oversized = %d, want 1", got)
	}
	if got := reg.Counter("sig.lines.skipped").Value(); got != int64(sal.LinesSkipped) {
		t.Errorf("sig.lines.skipped = %d, want %d", got, sal.LinesSkipped)
	}
}
