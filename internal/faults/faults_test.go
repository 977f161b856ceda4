package faults

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/obs"
)

// sample builds a small clean capture-shaped text.
func sample() string {
	var b strings.Builder
	for i := 0; i < 40; i++ {
		t := time.Duration(i) * 3 * time.Second
		b.WriteString(formatClock(t) + " NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n")
		b.WriteString("  Physical Cell ID = 393, NR Cell Global ID = 21320959, Freq = 521310\n")
	}
	return b.String()
}

func TestZeroRatesAreIdentity(t *testing.T) {
	text := sample()
	if got := New(1, Rates{}).Corrupt(text); got != text {
		t.Error("zero-rate injector must not modify the capture")
	}
}

// TestCollectorDoesNotPerturbOutput is the faults side of the metrics
// parity guarantee: counting what was injected never consumes the RNG
// stream, so the corrupted text is byte-identical with and without a
// collector attached.
func TestCollectorDoesNotPerturbOutput(t *testing.T) {
	text := sample()
	for _, rates := range []Rates{Uniform(0.2), Profile(0.10), {Restart: 1, Truncate: 1, ClockJump: 0.3}} {
		plain := New(42, rates).Corrupt(text)
		reg := obs.NewRegistry()
		observed := New(42, rates).WithCollector(reg).Corrupt(text)
		if plain != observed {
			t.Fatalf("rates %+v: corruption diverged once a collector was attached", rates)
		}
	}
}

// TestCollectorCountsFaults: each fired fault class shows up under its
// faults.* counter.
func TestCollectorCountsFaults(t *testing.T) {
	text := sample()
	reg := obs.NewRegistry()
	New(42, Rates{GarbleField: 0.3, DropLine: 0.2, DupLine: 0.2}).WithCollector(reg).Corrupt(text)
	for _, name := range []string{"faults.garble_field", "faults.drop_line", "faults.dup_line"} {
		if got := reg.Counter(name).Value(); got == 0 {
			t.Errorf("%s = 0, want > 0 at these rates on a 40-event capture", name)
		}
	}
	reg2 := obs.NewRegistry()
	New(3, Rates{Truncate: 1, Restart: 1}).WithCollector(reg2).Corrupt(text)
	if got := reg2.Counter("faults.truncate").Value(); got != 1 {
		t.Errorf("faults.truncate = %d, want 1", got)
	}
	if got := reg2.Counter("faults.restart").Value(); got == 0 {
		t.Error("faults.restart = 0, want > 0 at rate 1")
	}
	// No collector, no panic: the nil path stays silent.
	New(42, Uniform(0.2)).Corrupt(text)
}

func TestDeterministic(t *testing.T) {
	text := sample()
	r := Profile(0.10)
	a := New(42, r).Corrupt(text)
	b := New(42, r).Corrupt(text)
	if a != b {
		t.Error("same seed and rates must yield identical corruption")
	}
	c := New(43, r).Corrupt(text)
	if a == c {
		t.Error("different seeds should diverge on a 40-event capture")
	}
}

func TestUniformCorrupts(t *testing.T) {
	text := sample()
	got := New(7, Uniform(0.2)).Corrupt(text)
	if got == text {
		t.Error("20% uniform faults left the capture untouched")
	}
	// Line-level faults only: the capture must not be truncated and no
	// clock rewrite happens, so the last header keeps its timestamp.
	if !strings.Contains(got, "00:01:57.000") {
		t.Error("uniform profile should not rewrite timestamps")
	}
}

func TestTruncate(t *testing.T) {
	text := sample()
	r := Rates{Truncate: 1}
	got := New(3, r).Corrupt(text)
	if len(got) >= len(text) {
		t.Fatalf("truncation did not shorten the capture: %d vs %d", len(got), len(text))
	}
	if len(got) < len(text)/2 {
		t.Errorf("truncation cut before the halfway point: %d of %d", len(got), len(text))
	}
	if !strings.HasPrefix(text, got) {
		t.Error("truncation must be a prefix cut")
	}
}

func TestRestartResetsClock(t *testing.T) {
	text := sample()
	got := New(5, Rates{Restart: 1}).Corrupt(text)
	if !strings.Contains(got, restartBanner[0]) {
		t.Fatal("restart should interleave its banner")
	}
	// After the banner the clock restarts near zero: some header after
	// it must carry a timestamp smaller than the one before the banner.
	pre, post, _ := strings.Cut(got, restartBanner[0])
	lastPre, firstPost := lastHeaderTime(pre), firstHeaderTime(post)
	if firstPost >= lastPre {
		t.Errorf("clock did not regress across the restart: %v then %v", lastPre, firstPost)
	}
}

func TestGarbleBreaksDigits(t *testing.T) {
	in := New(11, Rates{})
	line := "  Physical Cell ID = 393, Freq = 521310"
	got := in.garble(line)
	if got == line {
		t.Fatal("garble should scramble one digit run")
	}
	if len(got) != len(line) {
		t.Error("garble must preserve line length")
	}
	if in.garble("no digits here") != "no digits here" {
		t.Error("garble without digit runs must be a no-op")
	}
}

func lastHeaderTime(text string) time.Duration {
	var last time.Duration
	for _, l := range strings.Split(text, "\n") {
		if at, ok := headerTime(l); ok {
			last = at
		}
	}
	return last
}

func firstHeaderTime(text string) time.Duration {
	for _, l := range strings.Split(text, "\n") {
		if at, ok := headerTime(l); ok {
			return at
		}
	}
	return -1
}

// headerTimeSscanf is the original fmt.Sscanf reading of the header
// clock, kept as the oracle headerTime must agree with.
func headerTimeSscanf(line string) (time.Duration, bool) {
	sp := strings.IndexByte(line, ' ')
	if sp <= 0 || strings.HasPrefix(line, " ") {
		return 0, false
	}
	var h, m, s, ms int
	if n, err := fmt.Sscanf(line[:sp], "%d:%d:%d.%d", &h, &m, &s, &ms); err != nil || n != 4 {
		return 0, false
	}
	if h < 0 || m < 0 || m > 59 || s < 0 || s > 59 || ms < 0 || ms > 999 {
		return 0, false
	}
	return time.Duration(h)*time.Hour + time.Duration(m)*time.Minute +
		time.Duration(s)*time.Second + time.Duration(ms)*time.Millisecond, true
}

// headerTimeSeeds are the header shapes where a hand-written clock
// scanner can drift from Sscanf: signs, leading white space (tab,
// NBSP, other Unicode spaces, newlines), overflowing digit runs,
// trailing bytes after the last field and garbled separators.
var headerTimeSeeds = []string{
	"00:00:00.800 NR5G RRC OTA Packet -- BCCH_BCH / MIB",
	"12:34:56.7x9 LTE RRC OTA Packet -- UL_DCCH / MeasurementReport",
	"+1:2:3.4 SYS -- EXCEPTION",
	"-0:-0:+0.-0 x",
	"-1:00:00.000 x",
	"\t01:02:03.004 x",
	"\u00a001:02:03.004 x",
	"01:\u300002:\r03.\v004 x",
	"01:02:03.\n004 x",
	"01:02:03.\r\n004 x",
	"01 :02:03.004 x",
	"99999999999999999999:00:00.000 x",
	"00000000000000000000001:00:00.000 x",
	"9223372036854775807:59:59.999 x",
	"9223372036854775808:00:00.000 x",
	"-9223372036854775808:00:00.000 x",
	"00:60:00.000 x",
	"00:00:00.1000 x",
	"00:00:00. x",
	"00:00:00 x",
	"0x:00:00.000 x",
	"0q:1?:#0.00f x",
	"0\xff:00:00.000 x",
	"\xc2:00:00.000 x",
	" 00:00:01.000 x",
	"00:00:01.000",
	"modem heartbeat ok seq=10421",
	"",
}

// TestHeaderTimeMatchesSscanf checks the byte-level clock scanner
// against the Sscanf oracle on the seed shapes and on every line of
// the fixed capture.
func TestHeaderTimeMatchesSscanf(t *testing.T) {
	lines := append([]string(nil), headerTimeSeeds...)
	lines = append(lines, strings.Split(sample(), "\n")...)
	lines = append(lines, foreignLines...)
	for _, line := range lines {
		checkHeaderTime(t, line)
	}
}

func checkHeaderTime(t *testing.T, line string) {
	t.Helper()
	got, gotOK := headerTime(line)
	want, wantOK := headerTimeSscanf(line)
	if got != want || gotOK != wantOK {
		t.Fatalf("headerTime(%q) = %v, %v; Sscanf oracle says %v, %v", line, got, gotOK, want, wantOK)
	}
}

// FuzzHeaderTime is the differential fuzzer for the header clock: on
// any line, headerTime and the Sscanf oracle agree on acceptance and
// on the parsed time.
func FuzzHeaderTime(f *testing.F) {
	for _, s := range headerTimeSeeds {
		f.Add(s)
	}
	f.Fuzz(checkHeaderTime)
}
