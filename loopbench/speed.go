package main

import (
	"crypto/sha256"
	"slices"
	"strconv"
	"time"
)

// probeRef is the probe kernel's wall time, in seconds, on the
// reference machine (a 2-vCPU Intel Xeon VM, go1.24.0) in a quiet
// phase. Reported times are scaled to that speed.
const probeRef = 0.025

// probeShare is the share of each iteration's wall time spent probing
// right after it, outside the timed region.
const probeShare = 0.05

// speedProbe tracks how fast the machine runs during a benchmark run.
// Shared sandboxes drift: the CPU speed a process gets changes by tens
// of percent over minutes as neighbours come and go, and it moves
// every timing of a run together. A fixed kernel timed between
// iterations sees the same drift, so scaling a run's times by
// probeRef ÷ (median kernel time) removes it. The kernel uses only the
// standard library and allocates nothing after set-up, so no change
// to loopscope can alter its cost.
type speedProbe struct {
	src, work []uint64
	text      []byte
	buf       []byte
	sink      byte
	times     []float64 // seconds per kernel run
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{
		src:  make([]uint64, 1<<17),
		work: make([]uint64, 1<<17),
		text: make([]byte, 1<<20),
		buf:  make([]byte, 0, 64),
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range p.src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.src[i] = x
	}
	for i := range p.text {
		p.text[i] = byte(p.src[i%len(p.src)])
	}
	return p
}

// kernel runs the fixed work once: hashing, sorting and number
// formatting, the operation mix of simulating, emitting and parsing.
func (p *speedProbe) kernel() {
	sum := sha256.Sum256(p.text)
	copy(p.work, p.src)
	slices.Sort(p.work)
	for i := 0; i < 16000; i++ {
		p.buf = strconv.AppendFloat(p.buf[:0], float64(p.work[i])/3.7, 'f', 3, 64)
	}
	p.sink ^= sum[0] ^ p.buf[0]
}

// after probes for probeShare of an iteration's wall seconds, at least
// once.
func (p *speedProbe) after(wall float64) {
	spent := 0.0
	for n := 0; n == 0 || spent < probeShare*wall; n++ {
		t0 := time.Now()
		p.kernel()
		d := time.Since(t0).Seconds()
		p.times = append(p.times, d)
		spent += d
	}
}

// factor is the scale from this run's seconds to reference seconds.
func (p *speedProbe) factor() float64 {
	return probeRef / median(p.times)
}
