package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/mssn/loopscope"
)

// fig6Args returns the golden-pinned study flags plus extras.
func fig6Args(extra ...string) []string {
	return append(append(append([]string{}, goldenArgs...), "-exp", "fig6"), extra...)
}

// readGolden loads an experiment golden.
func readGolden(t *testing.T, exp string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", exp+".golden"))
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	return want
}

// TestCheckpointedRunMatchesGolden: journaling every run does not
// change a single output byte, and the journal is created.
func TestCheckpointedRunMatchesGolden(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "study.ckpt")
	var stdout, stderr bytes.Buffer
	if code := run(fig6Args("-checkpoint", ckpt), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), readGolden(t, "fig6")) {
		t.Error("-checkpoint changed the experiment output")
	}
	if fi, err := os.Stat(ckpt); err != nil || fi.Size() == 0 {
		t.Fatalf("journal not written: %v", err)
	}

	// A complete journal resumes to the same bytes without re-running.
	var resumed, rerr bytes.Buffer
	if code := run(fig6Args("-checkpoint", ckpt, "-resume", "-workers", "4"), &resumed, &rerr); code != 0 {
		t.Fatalf("resume exit %d, stderr: %s", code, rerr.String())
	}
	if !bytes.Equal(resumed.Bytes(), readGolden(t, "fig6")) {
		t.Error("resumed output diverged from the golden")
	}

	// Without -resume the populated journal is refused.
	var out, serr bytes.Buffer
	if code := run(fig6Args("-checkpoint", ckpt), &out, &serr); code != 1 {
		t.Fatalf("reusing the journal without -resume: exit %d, want 1", code)
	}
	if !strings.Contains(serr.String(), "-resume") {
		t.Errorf("refusal does not mention -resume: %s", serr.String())
	}
}

// TestResumeWithoutCheckpointIsUsageError: -resume alone is a usage
// error, not a silent fresh run.
func TestResumeWithoutCheckpointIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(fig6Args("-resume"), &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestSinkStreamsDecodableRecords: -sink writes one decodable JSON
// line per run, identical at any worker count.
func TestSinkStreamsDecodableRecords(t *testing.T) {
	render := func(workers string) []byte {
		t.Helper()
		path := filepath.Join(t.TempDir(), "records.jsonl")
		var stdout, stderr bytes.Buffer
		if code := run(fig6Args("-sink", path, "-workers", workers), &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), readGolden(t, "fig6")) {
			t.Error("-sink changed the experiment output")
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	seq := render("1")
	sc := bufio.NewScanner(bytes.NewReader(seq))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lines := 0
	for sc.Scan() {
		if _, err := loopscope.DecodeStudyRecord(sc.Bytes()); err != nil {
			t.Fatalf("line %d does not decode: %v", lines+1, err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("sink is empty")
	}
	if par := render("4"); !bytes.Equal(seq, par) {
		t.Error("sink stream differs between 1 and 4 workers")
	}
}

// TestHelperProcess re-executes the test binary as the campaign CLI;
// only the SIGTERM e2e below spawns it.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("CAMPAIGN_E2E_CHILD") != "1" {
		t.Skip("helper process, not a test")
	}
	os.Exit(run(strings.Split(os.Getenv("CAMPAIGN_E2E_ARGS"), "\x1f"), os.Stdout, os.Stderr))
}

// TestSIGTERMKillAndResume is the subprocess half of the crash-recovery
// e2e: a real campaign process is killed with SIGTERM mid-study, must
// exit with the interrupted code, and a -resume run over the surviving
// journal must reproduce the golden bytes exactly. The test is robust
// to scheduling: if the child finishes before the signal lands, its
// output is checked against the golden and the resume still runs (a
// complete journal resumes to identical bytes too).
func TestSIGTERMKillAndResume(t *testing.T) {
	for _, workers := range []string{"1", "4"} {
		t.Run("workers="+workers, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "study.ckpt")
			args := fig6Args("-checkpoint", ckpt, "-workers", workers)
			child := exec.Command(os.Args[0], "-test.run=TestHelperProcess")
			child.Env = append(os.Environ(),
				"CAMPAIGN_E2E_CHILD=1",
				"CAMPAIGN_E2E_ARGS="+strings.Join(args, "\x1f"))
			var childOut, childErr bytes.Buffer
			child.Stdout, child.Stderr = &childOut, &childErr
			if err := child.Start(); err != nil {
				t.Fatal(err)
			}
			// Signal only once the child has created its journal: it does
			// so after installing its SIGTERM handler, so the signal is
			// then caught, never the default kill.
			for deadline := time.Now().Add(time.Minute); ; time.Sleep(2 * time.Millisecond) {
				if _, err := os.Stat(ckpt); err == nil {
					break
				}
				if time.Now().After(deadline) {
					_ = child.Process.Kill()
					_ = child.Wait()
					t.Fatalf("child never created its journal; stderr:\n%s", childErr.String())
				}
			}
			_ = child.Process.Signal(syscall.SIGTERM)
			err := child.Wait()
			switch code := child.ProcessState.ExitCode(); code {
			case 0:
				// Finished before the signal: output must already be golden.
				if !bytes.Equal(childOut.Bytes(), readGolden(t, "fig6")) {
					t.Fatalf("uninterrupted child output diverged from golden (err=%v)", err)
				}
			case exitInterrupted:
				if !strings.Contains(childErr.String(), "-resume") {
					t.Fatalf("interrupted child did not point at -resume:\n%s", childErr.String())
				}
			default:
				t.Fatalf("child exit %d, want 0 or %d; stderr:\n%s", code, exitInterrupted, childErr.String())
			}

			var resumed, rerr bytes.Buffer
			if code := run(fig6Args("-checkpoint", ckpt, "-resume", "-workers", workers), &resumed, &rerr); code != 0 {
				t.Fatalf("resume exit %d, stderr: %s", code, rerr.String())
			}
			if !bytes.Equal(resumed.Bytes(), readGolden(t, "fig6")) {
				t.Error("resumed output diverged from the golden after SIGTERM")
			}
		})
	}
}
