package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// followEvents runs `-follow -json analyze` to completion on path and
// decodes the emitted JSON Lines.
func decodeFollowEvents(t *testing.T, out *bytes.Buffer) []jsonFollowEvent {
	t.Helper()
	var events []jsonFollowEvent
	dec := json.NewDecoder(bytes.NewReader(out.Bytes()))
	for dec.More() {
		var e jsonFollowEvent
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("follow output is not JSON lines: %v\n%s", err, out.String())
		}
		events = append(events, e)
	}
	return events
}

// TestFollowGrowingCapture is the live-detection e2e: a capture file is
// written in two halves while -follow tails it, and the loop must be
// flagged exactly once, matching what batch analysis finds on the
// complete file.
func TestFollowGrowingCapture(t *testing.T) {
	data, err := os.ReadFile(capturePath(t))
	if err != nil {
		t.Fatal(err)
	}
	// Split at a line boundary near the middle so the first half ends
	// with a truncated capture — exactly a live capture mid-write.
	cut := bytes.IndexByte(data[len(data)/2:], '\n') + len(data)/2 + 1
	path := filepath.Join(t.TempDir(), "growing.log")
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-follow", "-json", "-poll", "10ms", "-idle-exit", "1s",
			"analyze", path}, strings.NewReader(""), &out, &errOut)
	}()
	// Let the follower drain the first half, then append the rest.
	time.Sleep(150 * time.Millisecond)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data[cut:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit = %d; stderr: %s", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("follow did not exit after the file stopped growing")
	}

	events := decodeFollowEvents(t, &out)
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	confirmed := map[string]int{}
	closed := map[string]int{}
	var eof *jsonFollowEvent
	for i, e := range events {
		switch e.Event {
		case "confirmed":
			confirmed[e.Fingerprint]++
			if len(e.CycleKeys) != e.CycleLen {
				t.Errorf("confirmed event carries %d keys for cycle of %d", len(e.CycleKeys), e.CycleLen)
			}
		case "closed":
			closed[e.Fingerprint]++
			if e.Form == "" {
				t.Errorf("closed event without form: %+v", e)
			}
		case "rep":
		case "eof":
			if i != len(events)-1 {
				t.Errorf("eof event at %d of %d", i, len(events))
			}
			ev := e
			eof = &ev
		default:
			t.Errorf("unknown event %q", e.Event)
		}
	}
	for fp, n := range confirmed {
		if n != 1 {
			t.Errorf("loop %s confirmed %d times, want exactly once", fp, n)
		}
		if closed[fp] != 1 {
			t.Errorf("loop %s closed %d times, want exactly once", fp, closed[fp])
		}
	}
	if eof == nil {
		t.Fatal("no eof summary event")
	}

	// The followed stream must find exactly the loops batch analysis
	// finds on the complete capture.
	var batchOut, batchErr bytes.Buffer
	if code := run([]string{"-json", "analyze", path}, strings.NewReader(""), &batchOut, &batchErr); code != 0 {
		t.Fatalf("batch analyze exit = %d; stderr: %s", code, batchErr.String())
	}
	var doc jsonDoc
	if err := json.Unmarshal(batchOut.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Loops) == 0 {
		t.Fatal("fixture capture has no loops")
	}
	if eof.Loops != len(doc.Loops) {
		t.Errorf("follow closed %d loops, batch found %d", eof.Loops, len(doc.Loops))
	}
	if got := len(confirmed); got != len(doc.Loops) {
		t.Errorf("follow confirmed %d distinct loops, batch found %d", got, len(doc.Loops))
	}
}

// TestFollowStdin: "-" follows standard input to EOF, no polling.
func TestFollowStdin(t *testing.T) {
	data, err := os.ReadFile(capturePath(t))
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-follow", "-json", "analyze", "-"}, bytes.NewReader(data), &out, &errOut); code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errOut.String())
	}
	events := decodeFollowEvents(t, &out)
	if len(events) < 2 || events[len(events)-1].Event != "eof" {
		t.Fatalf("unexpected event stream: %+v", events)
	}
}

// heapSampler is a capture reader that samples the live heap as the
// parse consumes it: every step bytes it forces a GC and records
// HeapAlloc, so peak is the largest live heap seen mid-parse.
type heapSampler struct {
	r          io.Reader
	step, next int64
	read       int64
	peak       uint64
}

func (h *heapSampler) Read(p []byte) (int, error) {
	n, err := h.r.Read(p)
	h.read += int64(n)
	if h.read >= h.next {
		h.next += h.step
		if live := liveHeap(); live > h.peak {
			h.peak = live
		}
	}
	return n, err
}

// liveHeap returns HeapAlloc right after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFollowHeapStaysFlat: a live tail holds the timeline and the
// detector's window, never the parsed events, so its heap stays far
// below the size of the capture it has read. A follower that retained
// every event would grow by more than half the input here.
func TestFollowHeapStaysFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("parses a 10 MiB capture")
	}
	data, err := os.ReadFile(capturePath(t))
	if err != nil {
		t.Fatal(err)
	}
	const size = 10 << 20
	input := bytes.Repeat(data, size/len(data)+1)
	base := liveHeap()
	src := &heapSampler{r: bytes.NewReader(input), step: 512 << 10}
	var errOut bytes.Buffer
	if code := run([]string{"-follow", "analyze", "-"}, src, io.Discard, &errOut); code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errOut.String())
	}
	var growth uint64
	if src.peak > base {
		growth = src.peak - base
	}
	if limit := uint64(len(input) / 8); growth > limit {
		t.Errorf("live heap grew %.1f MiB while following a %.1f MiB capture, want under %.1f MiB",
			float64(growth)/(1<<20), float64(len(input))/(1<<20), float64(limit)/(1<<20))
	}
}

// TestFollowTextMode: the human-readable stream reports the same
// lifecycle without -json.
func TestFollowTextMode(t *testing.T) {
	data, err := os.ReadFile(capturePath(t))
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-follow", "analyze", "-"}, bytes.NewReader(data), &out, &errOut); code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{"loop confirmed", "loop closed", "capture ended"} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}
}
