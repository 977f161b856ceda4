// Package faults is a seeded, deterministic capture-impairment
// injector: it corrupts an emitted NSG-style signaling log the way real
// captures break. Measurement campaigns never get pristine logs — the
// logger crashes mid-run, duplicates and reorders packets, interleaves
// foreign diagnostic records, garbles numeric fields and resets its
// clock after a restart. The injector models each of those artifacts as
// an independent fault with its own rate, so the salvage pipeline
// (lenient sig.ParseTo → trace.Builder → campaign records) can be
// exercised and measured under controlled, reproducible damage.
//
// All corruption is a pure function of (seed, rates, input): the same
// injector configuration always yields the same corrupted text.
package faults

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"github.com/mssn/loopscope/internal/obs"
)

// Rates configures the probability of each fault class. Line-level
// rates apply independently per line; structural rates apply per event
// block or once per capture. The zero value injects nothing.
type Rates struct {
	// DropLine removes a line (per line). Dropping a header orphans its
	// detail lines onto the previous record; dropping a detail usually
	// costs the record a mandatory field.
	DropLine float64
	// DupLine repeats a line immediately (per line) — duplicated
	// packets in the capture stream.
	DupLine float64
	// GarbleField scrambles one numeric field of a line (per line),
	// modeling bit rot and mis-decoded payloads.
	GarbleField float64
	// Interleave inserts a foreign diagnostic record before a line (per
	// line), the chatter real NSG exports carry between RRC packets.
	Interleave float64
	// ClockJump rewrites an event's timestamp by a random offset (per
	// event block), modeling clock steps and buffered flushes.
	ClockJump float64
	// ReorderSwap swaps an event block with its successor (per event
	// block) — out-of-order delivery from the diag transport.
	ReorderSwap float64
	// Restart models one mid-capture logger restart: the clock resets
	// to zero at a random event boundary and a restart banner is
	// interleaved. Applied at most once, with this probability.
	Restart float64
	// Truncate cuts the capture at a random byte offset in its second
	// half — the logger died before the run ended. Applied at most
	// once, with this probability.
	Truncate float64
}

// Uniform spreads a single per-line fault budget evenly across the four
// line-level faults: each line is corrupted with probability rate, the
// fault kind chosen uniformly. Structural faults stay off.
func Uniform(rate float64) Rates {
	return Rates{
		DropLine:    rate / 4,
		DupLine:     rate / 4,
		GarbleField: rate / 4,
		Interleave:  rate / 4,
	}
}

// Profile extends Uniform with the structural faults at proportional
// rates — the "everything that goes wrong in the field" preset the
// robustness experiment sweeps.
func Profile(rate float64) Rates {
	r := Uniform(rate)
	r.ClockJump = rate / 4
	r.ReorderSwap = rate / 4
	r.Restart = rate * 2 // rare events: still likely at a 20% sweep point
	r.Truncate = rate
	if r.Restart > 1 {
		r.Restart = 1
	}
	if r.Truncate > 1 {
		r.Truncate = 1
	}
	return r
}

// Injector applies a fault profile deterministically.
type Injector struct {
	rates Rates
	rng   *rand.Rand
	c     obs.Collector
}

// New returns an injector seeded for reproducible corruption.
func New(seed int64, rates Rates) *Injector {
	return &Injector{rates: rates, rng: rand.New(rand.NewSource(seed))}
}

// WithCollector routes per-fault-kind injection counts
// ("faults.<kind>") into c and returns the injector. Counting never
// consumes the RNG stream, so the corrupted output is byte-identical
// with or without a collector.
func (in *Injector) WithCollector(c obs.Collector) *Injector {
	in.c = c
	return in
}

// count bumps one fault-kind counter when a collector is attached.
func (in *Injector) count(name string) {
	if in.c != nil {
		in.c.Add(name, 1)
	}
}

// foreignLines is the pool of interleaved non-RRC diagnostics.
var foreignLines = []string{
	"0x17DE  LTE ML1 Serving Cell Measurement Result",
	"0x1FEB  Diag packet CRC mismatch, payload dropped",
	"QXDM trace buffer watermark 87%",
	"  raw payload: 9b 3f 00 c4 71 aa 02 e0",
	"modem heartbeat ok seq=10421",
}

// restartBanner is interleaved where a logger restart is injected.
var restartBanner = []string{
	"NSG logger restarted (previous session ended unexpectedly)",
	"diag port reopened, clock re-anchored",
}

// block is one event (header + indented details) or one foreign line.
type block struct {
	lines []string
	at    time.Duration // header timestamp, valid when event
	event bool
}

// Corrupt returns the text with the configured faults injected. The
// input is treated as '\n'-separated lines; a trailing newline is
// preserved. It is the streaming Reader drained into a string; the two
// paths are byte-identical for the same injector state.
func (in *Injector) Corrupt(text string) string {
	var sb strings.Builder
	sb.Grow(len(text) + len(text)/8)
	//lint:ignore loopvet/errflow string source and Builder sink cannot error; the blank is the documented all-paths-infallible idiom
	_, _ = io.Copy(&sb, in.Reader(strings.NewReader(text))) // a string source never errors
	return sb.String()
}

// roll draws one Bernoulli trial.
func (in *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return in.rng.Float64() < p
}

// garbleAlphabet intentionally favors non-digits so a scrambled numeric
// field actually breaks the strict grammar instead of silently changing
// a value.
const garbleAlphabet = "xqz#?!0f"

// garble scrambles one randomly chosen digit run of the line.
func (in *Injector) garble(line string) string {
	type run struct{ lo, hi int }
	var runs []run
	for i := 0; i < len(line); {
		if line[i] < '0' || line[i] > '9' {
			i++
			continue
		}
		j := i
		for j < len(line) && line[j] >= '0' && line[j] <= '9' {
			j++
		}
		runs = append(runs, run{i, j})
		i = j
	}
	if len(runs) == 0 {
		return line
	}
	r := runs[in.rng.Intn(len(runs))]
	b := []byte(line)
	for i := r.lo; i < r.hi; i++ {
		b[i] = garbleAlphabet[in.rng.Intn(len(garbleAlphabet))]
	}
	return string(b)
}

// setTime rewrites the block's header timestamp (clamped at zero).
func (b *block) setTime(t time.Duration) {
	if t < 0 {
		t = 0
	}
	b.at = t
	if sp := strings.IndexByte(b.lines[0], ' '); sp > 0 {
		b.lines[0] = formatClock(t) + b.lines[0][sp:]
	}
}

// headerTime recognizes the "HH:MM:SS.mmm " prefix of an event header.
// The token before the first space is read as fmt.Sscanf's
// "%d:%d:%d.%d" reads it: white space (but not a newline) may precede
// each field, a field is an optional sign and at least one ASCII digit
// whose value fits an int, the separators must follow the digits
// directly, and bytes after the last field are ignored — so
// "12:34:56.7x9" parses with ms = 7.
//
//loopvet:hot
func headerTime(line string) (time.Duration, bool) {
	sp := strings.IndexByte(line, ' ')
	if sp <= 0 {
		return 0, false
	}
	tok := line[:sp]
	var f [4]int
	i := 0
	for k := range f {
		if k > 0 {
			if i == len(tok) || tok[i] != clockSeps[k-1] {
				return 0, false
			}
			i++
		}
		var ok bool
		if f[k], i, ok = scanClockField(tok, i); !ok {
			return 0, false
		}
	}
	h, m, s, ms := f[0], f[1], f[2], f[3]
	if m > 59 || s > 59 || ms > 999 {
		return 0, false
	}
	return time.Duration(h)*time.Hour + time.Duration(m)*time.Minute +
		time.Duration(s)*time.Second + time.Duration(ms)*time.Millisecond, true
}

// clockSeps are the literals between the four clock fields.
const clockSeps = "::."

// scanClockField reads one %d field of the header clock starting at
// tok[i] and returns its value and the index after its last digit. It
// fails where Sscanf would (a newline in the leading white space, no
// digits, a value beyond int) and also on negative values, which no
// clock field accepts; "-0" is zero.
func scanClockField(tok string, i int) (v, next int, ok bool) {
	for i < len(tok) {
		c := tok[i]
		if c == '\n' {
			return 0, 0, false
		}
		if c < utf8.RuneSelf {
			if c != ' ' && (c < '\t' || c > '\r') {
				break
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(tok[i:])
		if !unicode.IsSpace(r) { // the same set as fmt's scanner
			break
		}
		i += w
	}
	neg := false
	if i < len(tok) && (tok[i] == '+' || tok[i] == '-') {
		neg = tok[i] == '-'
		i++
	}
	start := i
	var u uint64
	over := false
	for ; i < len(tok) && tok[i] >= '0' && tok[i] <= '9'; i++ {
		if u > (1<<63)/10 {
			over = true
			continue
		}
		u = u*10 + uint64(tok[i]-'0')
	}
	if i == start || over || u > math.MaxInt || neg && u != 0 {
		return 0, 0, false
	}
	return int(u), i, true
}

// formatClock renders a duration as the HH:MM:SS.mmm log clock.
func formatClock(d time.Duration) string {
	ms := d.Milliseconds()
	return fmt.Sprintf("%02d:%02d:%02d.%03d", ms/3600000, ms/60000%60, ms/1000%60, ms%1000)
}
