package faults

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchCapturePath is the fixed 305-event S1E3 capture the sig goldens
// and the pipeline benchmarks corrupt.
var benchCapturePath = filepath.Join("..", "sig", "testdata", "s1e3_capture.log")

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// TestCorruptDigestsBenchCapture pins the injector's exact output bytes
// over the fixed capture at the robustness profile. Any change to the
// RNG draw order, the block assembly or the line-level stage moves a
// digest; a pure speed-up must leave all of them alone.
func TestCorruptDigestsBenchCapture(t *testing.T) {
	data, err := os.ReadFile(benchCapturePath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]string{
		1:    "7588bc7370597b9877bc7182ac90f83f9bffc05134828d50205a7a40b140e7f9",
		7:    "25171c009ac88f126f0752aa5ef709f4c41bf6751c2c7b866fd5d9497eb852c4",
		42:   "f4181d29bacf50a356387ecc68bab39380eff81b8667960f4f08a9484ed78464",
		1004: "33c301a34e34562d8344242f8f85bd2494061417dce6716247682728add1cab0",
		7919: "562a675f58f6cfb43db7cb37309cf41f91606bba9175a79dbc71b6b6c40731e5",
	}
	for _, seed := range []int64{1, 7, 42, 1004, 7919} {
		got := digest(New(seed, Profile(0.05)).Corrupt(string(data)))
		if got != want[seed] {
			t.Errorf("seed %d: Corrupt digest %s, want %s", seed, got, want[seed])
		}
	}
}

// largeCapture renders a deterministic capture-shaped text of at least
// n bytes: SA measurement reports with detail lines, so every injector
// stage (header clock, detail continuation, garbling) has work to do.
func largeCapture(n int) string {
	var b strings.Builder
	b.Grow(n + 512)
	for i := 0; b.Len() < n; i++ {
		t := time.Duration(i) * 137 * time.Millisecond
		b.WriteString(formatClock(t))
		b.WriteString(" NR5G RRC OTA Packet -- UL_DCCH / MeasurementReport\n")
		for j := 0; j < 3; j++ {
			b.WriteString("  measResult {cell ")
			b.WriteString(strconv.Itoa(100 + (i+j)%400))
			b.WriteString("@521310, role neighbor, rsrp -")
			b.WriteString(strconv.Itoa(80 + (i*7+j)%40))
			b.WriteString(".5, rsrq -1")
			b.WriteString(strconv.Itoa((i + j) % 10))
			b.WriteString(".0}\n")
		}
	}
	return b.String()
}

// TestCorruptDigestsLargeCapture pins the output over a capture more
// than twice the truncation hold-back window, where the held bytes
// spill and the truncation cut can be clamped to the held window.
func TestCorruptDigestsLargeCapture(t *testing.T) {
	text := largeCapture(2*truncateHold + truncateHold/4)
	if len(text) < 2<<20 {
		t.Fatalf("synthetic capture is %d bytes, want at least 2 MiB", len(text))
	}
	full := Profile(0.05)
	full.Truncate = 1
	// clamped marks the case whose cut falls more than one window
	// before the end, so the cut is clamped to the held window.
	cases := []struct {
		name    string
		seed    int64
		rates   Rates
		clamped bool
		want    string
	}{
		{"truncate-only/seed3", 3, Rates{Truncate: 1}, true,
			"2f0f17f91f53b310832c6c31a3ce126f66934e45c071fd053eacb14ecb861215"},
		{"truncate-only/seed9", 9, Rates{Truncate: 1}, false,
			"e701c9e85707240d099ff6f6897f3be40310d22f03cc6dec8603843adabd98f4"},
		{"profile+truncate/seed7919", 7919, full, false,
			"8b8f9317a7c5ce76c138f3bcc9ec38db74eaeab1950c8735d73afb8e1b121924"},
	}
	for _, tc := range cases {
		got := New(tc.seed, tc.rates).Corrupt(text)
		if d := digest(got); d != tc.want {
			t.Errorf("%s: Corrupt digest %s (%d bytes), want %s", tc.name, d, len(got), tc.want)
		}
		if tc.clamped && len(got) != len(text)-truncateHold {
			t.Errorf("%s: kept %d of %d bytes, want the cut clamped to the %d-byte window",
				tc.name, len(got), len(text), truncateHold)
		}
	}
}
