package faults

import (
	"bufio"
	"io"
	"strings"
	"sync"
	"time"
)

// restartHazard is the per-boundary trigger probability once a restart
// has been armed. A streaming corruptor cannot pick a uniformly random
// boundary the way the whole-string algorithm did (the block count is
// unknown until EOF), so the restart is modeled as a hazard instead:
// one Restart-rate roll arms it at the first block boundary, then each
// boundary fires with this probability. For captures longer than a few
// dozen blocks the overall restart probability converges to the
// configured rate.
const restartHazard = 1.0 / 8

// truncateHold bounds the bytes held back when Truncate is enabled: the
// truncation point is only known at EOF, so only the last truncateHold
// bytes produced can still be cut. Captures larger than twice this
// bound may truncate slightly later than the whole-string algorithm
// would (the cut is clamped to the held window); the cut still lands in
// the second half.
const truncateHold = 1 << 20

// holdPool recycles hold buffers across readers. A 5-minute run's
// capture is about 150 KB, so without it every faulted run grows a
// fresh buffer by doubling. Buffers are pooled only up to the 2×truncateHold spill
// threshold, so a huge final line is never pinned.
var holdPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 128<<10)
		return &b
	},
}

// Reader wraps r with the injector's fault profile: records are
// corrupted as they flow through, so a multi-MiB capture is never
// materialized. Corrupt is this reader drained into a string — the two
// are byte-identical for the same injector state.
//
// The reader consumes the injector's seeded RNG stream. Use a fresh
// injector (or accept that draws continue where the last corruption
// left off) when reproducibility matters.
func (in *Injector) Reader(r io.Reader) io.Reader {
	cr := &corruptReader{in: in, br: bufio.NewReaderSize(r, 32*1024)}
	if in.rates.Truncate > 0 {
		cr.holding = true
		cr.pooled = holdPool.Get().(*[]byte)
		cr.hold = (*cr.pooled)[:0]
	}
	return cr
}

// corruptReader is the streaming corruption state machine. Input lines
// are grouped into blocks exactly as toBlocks does; each completed
// block passes through the structural stage (clock jumps, a one-block
// swap lookahead, the restart hazard) and then the line-level stage,
// whose output is served to the caller — held back only by the bounded
// truncation window.
type corruptReader struct {
	in *Injector
	br *bufio.Reader

	lineBuf []byte // reused by readLine
	readAny bool   // any input byte seen
	lastNL  bool   // most recent input line ended with '\n'
	srcEOF  bool
	srcErr  error // non-EOF input error, served after pending output

	cur  *block // event block under assembly
	held *block // event block awaiting its swap partner

	emitIdx        int // blocks emitted, in final order
	restartDecided bool
	restartArmed   bool
	restartDone    bool
	rebase         bool // restart fired: rebase event clocks
	haveT0         bool
	t0             time.Duration

	wroteLine bool // separator bookkeeping: a '\n' precedes every line but the first
	outTotal  int  // total corrupted bytes produced (pre-truncation)
	hold      []byte
	holding   bool    // Truncate enabled: route output through hold
	pooled    *[]byte // hold's pool slot, returned once the output is drained
	serve     []byte  // output ready for Read; serve[served:] is still unread
	served    int
	done      bool
}

func (cr *corruptReader) Read(p []byte) (int, error) {
	for cr.served == len(cr.serve) && !cr.done {
		cr.serve, cr.served = cr.serve[:0], 0
		cr.step()
	}
	if cr.served == len(cr.serve) {
		cr.serve, cr.served = nil, 0
		cr.release()
		if cr.srcErr != nil {
			return 0, cr.srcErr
		}
		return 0, io.EOF
	}
	n := copy(p, cr.serve[cr.served:])
	cr.served += n
	return n, nil
}

// release returns the hold buffer to the pool once nothing can still
// read from it.
func (cr *corruptReader) release() {
	if cr.pooled == nil {
		return
	}
	if cap(cr.hold) <= 2*truncateHold {
		*cr.pooled = cr.hold[:0]
		holdPool.Put(cr.pooled)
	}
	cr.pooled, cr.hold = nil, nil
}

// step consumes one input line (or finalizes at EOF), possibly
// producing served output.
func (cr *corruptReader) step() {
	if cr.srcEOF {
		cr.finish()
		return
	}
	line, sawNL, err := cr.readLine()
	if err != nil && err != io.EOF {
		cr.srcErr = err
		cr.srcEOF = true
		cr.finish()
		return
	}
	if err == io.EOF {
		cr.srcEOF = true
		if len(line) == 0 && !sawNL {
			// EOF on a line boundary — unless the input was entirely
			// empty, which the split-based algorithm treats as one
			// empty line.
			if cr.readAny {
				cr.finish()
				return
			}
		}
	}
	cr.readAny = true
	cr.lastNL = sawNL
	cr.feedLine(string(line))
	if cr.srcEOF {
		cr.finish()
	}
}

// readLine reads up to the next '\n' (exclusive), growing past the
// bufio window when needed — line length is unbounded, matching the
// whole-string algorithm.
func (cr *corruptReader) readLine() (line []byte, sawNL bool, err error) {
	cr.lineBuf = cr.lineBuf[:0]
	for {
		chunk, e := cr.br.ReadSlice('\n')
		cr.lineBuf = append(cr.lineBuf, chunk...)
		if e == bufio.ErrBufferFull {
			continue
		}
		if n := len(cr.lineBuf); n > 0 && cr.lineBuf[n-1] == '\n' {
			return cr.lineBuf[:n-1], true, nil
		}
		return cr.lineBuf, false, e
	}
}

// feedLine advances block assembly: headers open a new event block,
// indented or blank lines continue one, anything else is its own
// foreign block.
func (cr *corruptReader) feedLine(line string) {
	if at, ok := headerTime(line); ok {
		cr.closeCur()
		cr.cur = &block{lines: []string{line}, at: at, event: true}
		return
	}
	if cr.cur != nil && (strings.HasPrefix(line, "  ") || strings.TrimSpace(line) == "") {
		cr.cur.lines = append(cr.cur.lines, line)
		return
	}
	cr.closeCur()
	cr.dispatch(block{lines: []string{line}})
}

// closeCur dispatches the event block under assembly, if any.
func (cr *corruptReader) closeCur() {
	if cr.cur == nil {
		return
	}
	b := *cr.cur
	cr.cur = nil
	cr.dispatch(b)
}

// dispatch is the structural stage: clock jumps and the swap lookahead.
// A block arriving while another is held is the held block's swap
// partner and is emitted first, skipping its own structural rolls —
// the same skip the in-place algorithm performs after a swap.
func (cr *corruptReader) dispatch(b block) {
	if cr.held != nil {
		h := *cr.held
		cr.held = nil
		cr.emitBlock(b)
		cr.emitBlock(h)
		return
	}
	if b.event {
		if cr.in.roll(cr.in.rates.ClockJump) {
			cr.in.count("faults.clock_jump")
			jump := time.Duration(cr.in.rng.Intn(150_000)-30_000) * time.Millisecond
			b.setTime(b.at + jump)
		}
		if cr.in.roll(cr.in.rates.ReorderSwap) {
			cr.in.count("faults.reorder_swap")
			cr.held = &b
			return
		}
	}
	cr.emitBlock(b)
}

// emitBlock runs the restart hazard at the block boundary, rebases the
// clock when a restart has fired, then hands the block to the
// line-level stage.
func (cr *corruptReader) emitBlock(b block) {
	if cr.emitIdx >= 1 && !cr.restartDone {
		if !cr.restartDecided {
			cr.restartDecided = true
			cr.restartArmed = cr.in.roll(cr.in.rates.Restart)
			if !cr.restartArmed {
				cr.restartDone = true
			}
		}
		if cr.restartArmed && cr.in.rng.Float64() < restartHazard {
			cr.in.count("faults.restart")
			cr.restartDone = true
			cr.rebase = true
			cr.emitLines(block{lines: restartBanner})
			cr.emitIdx++
		}
	}
	if cr.rebase && b.event {
		if !cr.haveT0 {
			cr.haveT0 = true
			cr.t0 = b.at
		}
		b.setTime(b.at - cr.t0)
	}
	cr.emitLines(b)
	cr.emitIdx++
}

// emitLines is the line-level stage: per line, an optional interleaved
// foreign record, then drop / duplicate / garble.
//
//loopvet:hot
func (cr *corruptReader) emitLines(b block) {
	for _, line := range b.lines {
		if cr.in.roll(cr.in.rates.Interleave) {
			cr.in.count("faults.interleave")
			cr.writeLine(foreignLines[cr.in.rng.Intn(len(foreignLines))])
		}
		switch {
		case cr.in.roll(cr.in.rates.DropLine):
			cr.in.count("faults.drop_line")
			continue
		case cr.in.roll(cr.in.rates.DupLine):
			cr.in.count("faults.dup_line")
			cr.writeLine(line)
			cr.writeLine(line)
		case cr.in.roll(cr.in.rates.GarbleField):
			cr.in.count("faults.garble_field")
			cr.writeLine(cr.in.garble(line))
		default:
			cr.writeLine(line)
		}
	}
}

// writeLine emits one output line, '\n'-separated from its predecessor.
func (cr *corruptReader) writeLine(line string) {
	if cr.wroteLine {
		cr.writeByte('\n')
	}
	cr.wroteLine = true
	cr.writeBytes(line)
}

func (cr *corruptReader) writeByte(c byte) {
	cr.outTotal++
	if cr.holding {
		cr.hold = append(cr.hold, c)
		cr.spillHold()
	} else {
		cr.serve = append(cr.serve, c)
	}
}

func (cr *corruptReader) writeBytes(s string) {
	cr.outTotal += len(s)
	if cr.holding {
		cr.hold = append(cr.hold, s...)
		cr.spillHold()
	} else {
		cr.serve = append(cr.serve, s...)
	}
}

// spillHold keeps the hold-back buffer bounded: bytes before the last
// truncateHold can never be cut, so once the buffer reaches twice the
// window they move to serve in one bulk copy. Spilling per line instead
// would move the whole window on every line written.
func (cr *corruptReader) spillHold() {
	if len(cr.hold) < 2*truncateHold {
		return
	}
	excess := len(cr.hold) - truncateHold
	cr.serve = append(cr.serve, cr.hold[:excess]...)
	cr.hold = cr.hold[:copy(cr.hold, cr.hold[excess:])]
}

// finish flushes assembly state at EOF and applies the trailing-newline
// and truncation rules.
func (cr *corruptReader) finish() {
	if cr.done {
		return
	}
	cr.done = true
	cr.closeCur()
	if cr.held != nil {
		// A swap rolled on the final block has no partner; it stays in
		// place, as in the in-place algorithm.
		h := *cr.held
		cr.held = nil
		cr.emitBlock(h)
	}
	if cr.lastNL && cr.wroteLine {
		cr.writeByte('\n')
	}
	if cr.in.roll(cr.in.rates.Truncate) && cr.outTotal > 1 {
		cr.in.count("faults.truncate")
		cut := cr.outTotal/2 + cr.in.rng.Intn(cr.outTotal-cr.outTotal/2)
		// The cut is clamped to the held window: the last truncateHold
		// bytes, or all of hold when less was written.
		drop := min(cr.outTotal-cut, len(cr.hold), truncateHold)
		cr.hold = cr.hold[:len(cr.hold)-drop]
	}
	if !cr.holding {
		return
	}
	if cr.served == len(cr.serve) {
		// Serve the held bytes in place; Read releases the buffer
		// once it has drained them.
		cr.serve, cr.served = cr.hold, 0
		return
	}
	cr.serve = append(cr.serve, cr.hold...)
	cr.release()
}
