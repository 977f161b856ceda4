package core

import (
	"fmt"
	"time"

	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/trace"
)

// StreamConfig configures a StreamDetector.
type StreamConfig struct {
	// Horizon bounds the cycle length (in steps) the detector considers.
	// With Horizon H > 0 the detector retains a bounded window — at most
	// 2H+2 steps beyond the resolved prefix — and is exactly equivalent
	// to DetectAllHorizon(tl, H) on the complete input. Horizon 0 means
	// unbounded: output is exactly DetectAll, but an undecided candidate
	// keeps its suffix retained until Flush.
	Horizon int
	// OnEvent, when set, receives loop lifecycle events as they are
	// decided: StreamConfirmed once per loop when its second repetition
	// completes, StreamRep per later completed repetition, and
	// StreamClosed when the loop's final form is known (mid-stream for
	// II-SP, at Flush for II-P). The callback runs synchronously inside
	// Push/Flush.
	OnEvent func(StreamEvent)
	// Metrics receives the per-window observation counters
	// (detect.stream.*, see docs/OBSERVABILITY.md); nil disables them.
	// Like every obs hook, metrics never change detection output.
	Metrics obs.Collector
}

// StreamEventKind is the lifecycle stage a StreamEvent announces.
type StreamEventKind uint8

// The loop lifecycle events, in the order a loop emits them.
const (
	// StreamConfirmed fires exactly once per loop, when its second
	// repetition completes (§4.1's "repeatedly observed twice or more").
	StreamConfirmed StreamEventKind = iota
	// StreamRep fires when a further full repetition completes.
	StreamRep
	// StreamClosed fires when the loop's form is final: a mismatching
	// step makes it II-SP, stream end (Flush) makes it II-P.
	StreamClosed
)

// String names the event kind.
func (k StreamEventKind) String() string {
	switch k {
	case StreamConfirmed:
		return "confirmed"
	case StreamRep:
		return "rep"
	case StreamClosed:
		return "closed"
	default:
		return fmt.Sprintf("StreamEventKind(%d)", uint8(k))
	}
}

// StreamEvent is one incremental detection announcement.
type StreamEvent struct {
	Kind StreamEventKind
	// At is the capture time that decided the event: the timestamp of
	// the step completing a repetition or breaking the cycle, or the
	// flush duration for an end-of-stream II-P close.
	At time.Duration
	// Loop is the loop's state when the event fired. Form is FormNoLoop
	// until the Closed event; Cycles carries the repetitions whose end
	// boundary is already known, so it can trail Reps by one until the
	// next step (or Flush) supplies the boundary time.
	Loop StreamLoop
}

// StreamLoop is a self-contained detected-loop record: the same
// structure DetectAll reports, but carrying its cycle keys, per-cycle
// metrics, fingerprint and sub-type by value so it can outlive the
// detector's bounded window. Indices are absolute step indices into the
// full timeline, so Attach on the complete timeline reconstructs the
// identical *Loop.
type StreamLoop struct {
	Start       int
	CycleLen    int
	Reps        int
	End         int
	Form        Form
	CycleKeys   []string
	Cycles      []CycleMetrics
	Fingerprint string
	Subtype     Subtype
}

// Attach rebinds the record to the complete timeline it was detected
// in, yielding the *Loop DetectAll would have produced.
func (sl StreamLoop) Attach(tl *trace.Timeline) *Loop {
	return &Loop{
		Start:    sl.Start,
		CycleLen: sl.CycleLen,
		Reps:     sl.Reps,
		End:      sl.End,
		Form:     sl.Form,
		Timeline: tl,
	}
}

// AttachAnalysis converts a flushed detector's records into the
// Analysis that Analyze(tl) produces on the same complete timeline —
// loops re-attached and re-classified against the full step sequence.
func AttachAnalysis(loops []StreamLoop, tl *trace.Timeline) Analysis {
	var ls []*Loop
	for _, sl := range loops {
		ls = append(ls, sl.Attach(tl))
	}
	a := Analysis{Loops: ls, Subtypes: make([]Subtype, len(ls))}
	for i, l := range ls {
		a.Subtypes[i] = Classify(l)
	}
	return a
}

// openLoop is the detector's state for a confirmed, not-yet-closed loop.
type openLoop struct {
	start, cycleLen int
	// match is one past the region matching the cyclic repetition; the
	// loop closes (II-SP) at the first non-matching step.
	match int
	// announced is the repetition count last reported through OnEvent.
	announced int
	keys      []string

	fingerprint string
	subtype     Subtype

	// Incremental §4.3 metrics. meter is the next absolute step index
	// whose end time (= the following step's start) is still unknown;
	// repStart/curOn accumulate the repetition currently being metered.
	cycles   []CycleMetrics
	meter    int
	repStart time.Duration
	curOn    time.Duration
}

// resolution is the outcome of examining the current scan position.
type resolution uint8

const (
	resolveWait   resolution = iota // undecidable until more steps arrive
	resolveOpen                     // a loop was confirmed at scan
	resolveNoLoop                   // every admissible cycle length is ruled out
)

// StreamDetector is the incremental counterpart of DetectAll: it
// consumes timeline steps one at a time (typically via
// trace.Builder.TeeSteps) and decides loops as soon as the stream
// determines them — a loop is confirmed the moment its second
// repetition completes, extended per repetition, and closed as II-SP at
// the first breaking step or as II-P at Flush.
//
// Equivalence: on any complete input with non-decreasing step times and
// a flush duration not before the last step (exactly what trace.Builder
// guarantees), the closed records equal DetectAll's loops — same
// starts, cycle lengths, repetition counts, ends, forms, fingerprints,
// per-cycle metrics and sub-types. With Horizon H > 0 the reference is
// DetectAllHorizon(tl, H) and the retained window is bounded by 2H+2
// steps. FuzzStreamDetectParity and the golden-replay tests pin both.
//
// The loop structure itself (starts, lengths, repetitions, forms)
// depends only on the cell-set key sequence and holds for arbitrary
// step times; only the per-cycle On/Off metrics need the monotonic-time
// contract above.
//
// A StreamDetector is single-goroutine state: Push, Flush and the
// OnEvent callback must not be called concurrently.
type StreamDetector struct {
	cfg StreamConfig

	// win/keys/on hold the retained steps; win[0] is absolute index base.
	win  []trace.Step
	keys []string
	on   []bool
	base int
	n    int // total steps pushed

	// scan is the absolute index currently examined as a loop start;
	// minL is the smallest not-yet-rejected cycle length there, and
	// checked is how far minL's second repetition has been verified.
	scan    int
	minL    int
	checked int

	open  *openLoop
	loops []StreamLoop

	flushed  bool
	duration time.Duration

	confirmed, closed, evicted int64
}

// NewStreamDetector returns an empty detector.
func NewStreamDetector(cfg StreamConfig) *StreamDetector {
	return &StreamDetector{cfg: cfg, minL: MinReps}
}

// Push consumes the next timeline step. It panics if called after
// Flush, mirroring trace.Builder's no-reuse contract.
func (d *StreamDetector) Push(s trace.Step) {
	if d.flushed {
		panic("core: StreamDetector.Push after Flush")
	}
	d.win = append(d.win, s)
	d.keys = append(d.keys, s.Set.Key())
	d.on = append(d.on, s.Set.Uses5G())
	d.n++
	if c := d.cfg.Metrics; c != nil {
		c.Add("detect.stream.steps", 1)
	}
	d.advance()
	d.evict()
}

// Flush ends the stream at the given observation duration (clamped to
// the last step time, as trace.Builder.Finish does): the open loop, if
// any, finalizes as II-P, and every still-undecided candidate position
// resolves against the now-final length. It returns all closed loops in
// detection order; calling Flush again returns the same slice.
func (d *StreamDetector) Flush(duration time.Duration) []StreamLoop {
	if d.flushed {
		return d.loops
	}
	d.flushed = true
	if d.n > 0 {
		if last := d.win[d.n-1-d.base].At; duration < last {
			duration = last
		}
	}
	d.duration = duration
	d.advance()
	if c := d.cfg.Metrics; c != nil {
		c.Set("detect.stream.window", int64(len(d.win)))
		c.Set("detect.stream.open", 0)
	}
	return d.loops
}

// Loops returns the loops closed so far, in detection order. The slice
// is complete once Flush has run.
func (d *StreamDetector) Loops() []StreamLoop { return d.loops }

// Steps returns how many steps have been pushed.
func (d *StreamDetector) Steps() int { return d.n }

// Retained returns the current window size in steps — the detector's
// live memory footprint, bounded by 2·Horizon+2 when a horizon is set.
func (d *StreamDetector) Retained() int { return len(d.win) }

// advance resolves everything the retained steps decide: it extends or
// closes the open loop, then walks the scan position forward over
// OFF steps, ruled-out candidates and newly confirmed loops until the
// stream is needed again.
func (d *StreamDetector) advance() {
	for {
		if d.open != nil {
			if d.extend() {
				continue
			}
			// Still open: every retained step matched, so match == n.
			if d.flushed {
				// The sequence ends inside the loop, II-P by Figure 4.
				d.close(FormPersistent, d.open.match)
				continue
			}
			d.meterTo(d.n - 1)
			return
		}
		if d.scan >= d.n {
			return
		}
		if !d.on[d.scan-d.base] {
			// A loop's first cycle starts 5G ON (Fig. 4).
			d.stepScan()
			continue
		}
		switch d.resolve() {
		case resolveOpen:
			continue
		case resolveNoLoop:
			d.stepScan()
		case resolveWait:
			return
		}
	}
}

// stepScan moves the candidate position one step right.
func (d *StreamDetector) stepScan() {
	d.scan++
	d.minL = MinReps
	d.checked = 0
}

// resolve examines candidate cycle lengths at the scan position in
// ascending order — the shortest repeating cycle wins, exactly as
// detectAt — rejecting each as soon as the retained steps contradict
// it and accepting the first whose second repetition fully matches.
func (d *StreamDetector) resolve() resolution {
	k := d.scan
	for {
		L := d.minL
		if d.cfg.Horizon > 0 && L > d.cfg.Horizon {
			return resolveNoLoop
		}
		if d.flushed && k+MinReps*L > d.n {
			return resolveNoLoop
		}
		// The cycle must end with 5G OFF so that each repetition is an
		// ON→OFF→ON swing.
		if k+L-1 >= d.n {
			return resolveWait
		}
		if d.on[k+L-1-d.base] {
			d.minL++
			d.checked = 0
			continue
		}
		// Verify the second repetition as far as the stream allows. A
		// mismatch rejects L permanently — it is a fact about steps that
		// will never change.
		j := d.checked
		if j < k+L {
			j = k + L
		}
		limit := k + MinReps*L
		if limit > d.n {
			limit = d.n
		}
		rejected := false
		for ; j < limit; j++ {
			if d.keys[j-d.base] != d.keys[k+(j-k)%L-d.base] {
				rejected = true
				break
			}
		}
		if rejected {
			d.minL++
			d.checked = 0
			continue
		}
		if limit < k+MinReps*L {
			d.checked = limit
			return resolveWait
		}
		d.accept(k, L)
		return resolveOpen
	}
}

// accept opens a confirmed loop at k with cycle length L and announces
// it. Everything the record needs beyond the bounded window — the cycle
// keys, the classification evidence (the first cycle plus the step
// before it), the fingerprint — is copied out here.
func (d *StreamDetector) accept(k, L int) {
	o := &openLoop{
		start:     k,
		cycleLen:  L,
		match:     k + MinReps*L,
		announced: MinReps,
		keys:      append([]string(nil), d.keys[k-d.base:k+L-d.base]...),
		meter:     k,
		repStart:  d.win[k-d.base].At,
	}
	o.fingerprint = fingerprintKeys(o.keys)
	var window []trace.Step
	hasPre := k > 0
	if hasPre {
		window = append(window, d.win[k-1-d.base])
	}
	window = append(window, d.win[k-d.base:k+L-d.base]...)
	o.subtype = classifyWindow(window, hasPre, L)
	d.open = o
	d.confirmed++
	if c := d.cfg.Metrics; c != nil {
		c.Add("detect.stream.confirmed", 1)
		c.Set("detect.stream.open", 1)
	}
	// Meter only the verified extent: a late acceptance (the scanner was
	// held up on an earlier candidate) may find steps beyond k+2L already
	// retained, but whether they belong to this loop is extend()'s call.
	d.meterTo(k + MinReps*L - 1)
	d.emit(StreamConfirmed, d.win[k+MinReps*L-1-d.base].At, FormNoLoop, MinReps, o.match)
}

// extend advances the open loop over retained steps, reporting whether
// it closed (first mismatching step, II-SP).
func (d *StreamDetector) extend() bool {
	o := d.open
	for o.match < d.n {
		i := o.match
		if d.keys[i-d.base] != o.keys[(i-o.start)%o.cycleLen] {
			d.close(FormSemiPersistent, i)
			return true
		}
		o.match++
		if (o.match-o.start)%o.cycleLen == 0 {
			if reps := (o.match - o.start) / o.cycleLen; reps > o.announced {
				o.announced = reps
				d.emit(StreamRep, d.win[i-d.base].At, FormNoLoop, reps, o.match)
			}
		}
	}
	return false
}

// close finalizes the open loop with the given form and End index,
// records it, and resumes scanning at End (DetectAll's k = l.End).
func (d *StreamDetector) close(form Form, end int) {
	o := d.open
	reps := (end - o.start) / o.cycleLen
	endIdx := o.start + reps*o.cycleLen
	// Finish metering every complete repetition. The final boundary
	// time is the next step's start, or the flush duration when the
	// repetitions run exactly to the end of the stream.
	limit := endIdx
	if limit > d.n-1 {
		limit = d.n - 1
	}
	d.meterTo(limit)
	if endIdx == d.n && o.meter == d.n-1 {
		d.meterStep(d.duration)
	}
	at := d.duration
	if end < d.n {
		at = d.win[end-d.base].At
	}
	sl := StreamLoop{
		Start:       o.start,
		CycleLen:    o.cycleLen,
		Reps:        reps,
		End:         end,
		Form:        form,
		CycleKeys:   o.keys,
		Cycles:      o.cycles,
		Fingerprint: o.fingerprint,
		Subtype:     o.subtype,
	}
	d.loops = append(d.loops, sl)
	d.open = nil
	d.scan = end
	d.minL = MinReps
	d.checked = 0
	d.closed++
	if c := d.cfg.Metrics; c != nil {
		c.Add("detect.stream.closed", 1)
		c.Set("detect.stream.open", 0)
	}
	if d.cfg.OnEvent != nil {
		d.cfg.OnEvent(StreamEvent{Kind: StreamClosed, At: at, Loop: sl})
	}
}

// emit announces the open loop's current state.
func (d *StreamDetector) emit(kind StreamEventKind, at time.Duration, form Form, reps, end int) {
	if d.cfg.OnEvent == nil {
		return
	}
	o := d.open
	d.cfg.OnEvent(StreamEvent{Kind: kind, At: at, Loop: StreamLoop{
		Start:       o.start,
		CycleLen:    o.cycleLen,
		Reps:        reps,
		End:         end,
		Form:        form,
		CycleKeys:   append([]string(nil), o.keys...),
		Cycles:      append([]CycleMetrics(nil), o.cycles...),
		Fingerprint: o.fingerprint,
		Subtype:     o.subtype,
	}})
}

// meterTo advances the metrics meter while the end time of the metered
// step is known, i.e. while meter < limit ≤ n-1.
func (d *StreamDetector) meterTo(limit int) {
	o := d.open
	for o.meter < limit {
		d.meterStep(d.win[o.meter+1-d.base].At)
	}
}

// meterStep accounts the step at the meter position, whose in-force
// window ends at end, into the current repetition; crossing a
// repetition boundary finalizes that repetition's CycleMetrics with the
// same clamping as Loop.Cycles.
func (d *StreamDetector) meterStep(end time.Duration) {
	o := d.open
	s := d.win[o.meter-d.base]
	if s.Set.Uses5G() && end > s.At {
		o.curOn += end - s.At
	}
	o.meter++
	if (o.meter-o.start)%o.cycleLen == 0 {
		boundary := end
		if boundary < o.repStart {
			boundary = o.repStart
		}
		if boundary < o.repStart+o.curOn {
			boundary = o.repStart + o.curOn
		}
		o.cycles = append(o.cycles, CycleMetrics{
			Start: o.repStart,
			On:    o.curOn,
			Off:   boundary - o.repStart - o.curOn,
		})
		o.repStart = boundary
		o.curOn = 0
	}
}

// classifyWindow runs the batch classifier over the copied evidence
// window (the step before the loop, when one exists, plus the first
// cycle) — the only steps Classify and PreOffState ever read.
func classifyWindow(steps []trace.Step, hasPre bool, cycleLen int) Subtype {
	start := 0
	if hasPre {
		start = 1
	}
	return Classify(&Loop{
		Start:    start,
		CycleLen: cycleLen,
		Reps:     MinReps,
		End:      start + MinReps*cycleLen,
		Form:     FormSemiPersistent,
		Timeline: &trace.Timeline{Steps: steps},
	})
}

// evict drops steps the detector can no longer need: everything before
// the scan position's look-behind step when no loop is open, and
// everything already metered when one is. The two newest steps always
// stay so a close can immediately rescan with its look-behind intact.
func (d *StreamDetector) evict() {
	keep := d.scan - 1
	if d.open != nil {
		keep = d.open.meter
	}
	if keep > d.n-2 {
		keep = d.n - 2
	}
	if keep < d.base {
		keep = d.base
	}
	drop := keep - d.base
	if drop <= 0 {
		return
	}
	d.evicted += int64(drop)
	d.win = d.win[drop:]
	d.keys = d.keys[drop:]
	d.on = d.on[drop:]
	d.base = keep
	if len(d.win)*4 < cap(d.win) {
		// Re-pack so the backing arrays shrink with the window.
		d.win = append(make([]trace.Step, 0, len(d.win)), d.win...)
		d.keys = append(make([]string, 0, len(d.keys)), d.keys...)
		d.on = append(make([]bool, 0, len(d.on)), d.on...)
	}
	if c := d.cfg.Metrics; c != nil {
		c.Add("detect.stream.evicted", int64(drop))
		c.Set("detect.stream.window", int64(len(d.win)))
	}
}
