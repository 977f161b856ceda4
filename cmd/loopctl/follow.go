package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/mssn/loopscope"
	"github.com/mssn/loopscope/internal/obs"
)

// tailReader turns a capture file into a growing stream: at EOF it
// polls for appended bytes instead of ending, the `tail -f` posture.
// With idleExit > 0 the stream ends once the file has not grown for
// that long — the clean-shutdown knob tests and batch users need; with
// idleExit 0 it follows until the process is interrupted.
type tailReader struct {
	f        *os.File
	poll     time.Duration
	idleExit time.Duration
	idle     time.Duration
}

// Read implements io.Reader with tail-follow semantics.
func (t *tailReader) Read(p []byte) (int, error) {
	for {
		n, err := t.f.Read(p)
		if n > 0 {
			t.idle = 0
			return n, nil
		}
		if err != nil && err != io.EOF {
			return 0, err
		}
		if t.idleExit > 0 && t.idle >= t.idleExit {
			return 0, io.EOF
		}
		time.Sleep(t.poll)
		t.idle += t.poll
	}
}

// jsonFollowEvent is one incremental loop record on the -follow stream
// (JSON Lines, one object per event).
type jsonFollowEvent struct {
	Event       string   `json:"event"` // confirmed | rep | closed | eof
	AtS         float64  `json:"at_s"`
	Start       int      `json:"start,omitempty"`
	CycleLen    int      `json:"cycle_len,omitempty"`
	Reps        int      `json:"reps,omitempty"`
	Form        string   `json:"form,omitempty"` // closed only
	Subtype     string   `json:"subtype,omitempty"`
	Fingerprint string   `json:"fingerprint,omitempty"`
	CycleKeys   []string `json:"cycle_keys,omitempty"` // confirmed only
	AvgOnS      float64  `json:"avg_on_s,omitempty"`   // closed only
	AvgOffS     float64  `json:"avg_off_s,omitempty"`  // closed only
	Loops       int      `json:"loops,omitempty"`      // eof only
	Steps       int      `json:"steps,omitempty"`      // eof only
}

// follow tails a capture as it grows and reports loops as the stream
// decides them: a "confirmed" record the moment a loop completes its
// second repetition, "rep" per further repetition, and "closed" when
// the form is final (II-SP at the breaking step, II-P at end of
// capture). Parsing is always lenient — a live capture's tail is
// routinely mid-record. With "-" the events stream from stdin until
// EOF; a file is polled for growth (-poll) until -idle-exit elapses
// with no new bytes.
func (a *app) follow(path string) error {
	r := a.stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = &tailReader{f: f, poll: a.poll, idleExit: a.idleExit}
	}
	enc := json.NewEncoder(a.stdout)
	sd := loopscope.NewStreamLoopDetector(loopscope.StreamDetectorConfig{
		Horizon: a.horizon,
		Metrics: a.collector(),
		OnEvent: func(e loopscope.StreamLoopEvent) { a.emitFollowEvent(enc, e) },
	})
	tb := loopscope.NewTimelineBuilder()
	tb.TeeSteps(sd.Push)
	endParse := a.span(obs.StageParse)
	sal, err := loopscope.ParseLogTo(r, tb, loopscope.ParseOptions{Lenient: true, Metrics: a.collector()})
	endParse()
	if err != nil {
		return err
	}
	endExtract := a.span(obs.StageExtract)
	tl := tb.Finish()
	endExtract()
	endDetect := a.span(obs.StageDetect)
	loops := sd.Flush(tl.Duration)
	endDetect()
	if a.jsonOut {
		enc.Encode(jsonFollowEvent{
			Event: "eof",
			AtS:   tl.Duration.Seconds(),
			Loops: len(loops),
			Steps: len(tl.Steps),
		})
	} else {
		fmt.Fprintf(a.stdout, "capture ended after %s: %d step(s), %d loop(s)\n",
			tl.Duration.Round(time.Millisecond), len(tl.Steps), len(loops))
		if sal != nil && (sal.RecordsDropped > 0 || sal.LinesSkipped > 0) {
			fmt.Fprintln(a.stdout, sal.Summary())
		}
	}
	return nil
}

// emitFollowEvent renders one detector event: a JSON line with -json, a
// human-readable line otherwise.
func (a *app) emitFollowEvent(enc *json.Encoder, e loopscope.StreamLoopEvent) {
	l := e.Loop
	if a.jsonOut {
		je := jsonFollowEvent{
			Event:       e.Kind.String(),
			AtS:         e.At.Seconds(),
			Start:       l.Start,
			CycleLen:    l.CycleLen,
			Reps:        l.Reps,
			Subtype:     l.Subtype.String(),
			Fingerprint: l.Fingerprint,
		}
		switch e.Kind {
		case loopscope.StreamLoopConfirmed:
			je.CycleKeys = l.CycleKeys
		case loopscope.StreamLoopClosed:
			je.Form = l.Form.String()
			var on, off time.Duration
			for _, c := range l.Cycles {
				on += c.On
				off += c.Off
			}
			if n := time.Duration(len(l.Cycles)); n > 0 {
				je.AvgOnS = (on / n).Seconds()
				je.AvgOffS = (off / n).Seconds()
			}
		case loopscope.StreamLoopRep:
			// reps and timing carry everything a repetition adds.
		}
		enc.Encode(je)
		return
	}
	switch e.Kind {
	case loopscope.StreamLoopConfirmed:
		fmt.Fprintf(a.stdout, "t=%-10s loop confirmed: %s, cycle of %d sets ×%d [%s]\n",
			e.At.Round(time.Millisecond), l.Subtype, l.CycleLen, l.Reps, l.Fingerprint)
		for _, k := range l.CycleKeys {
			fmt.Fprintf(a.stdout, "             %s\n", k)
		}
	case loopscope.StreamLoopRep:
		fmt.Fprintf(a.stdout, "t=%-10s loop repeat: ×%d [%s]\n",
			e.At.Round(time.Millisecond), l.Reps, l.Fingerprint)
	case loopscope.StreamLoopClosed:
		fmt.Fprintf(a.stdout, "t=%-10s loop closed: %s (%s) ×%d [%s]\n",
			e.At.Round(time.Millisecond), l.Subtype, l.Form, l.Reps, l.Fingerprint)
	}
}
