//go:build unix

package campaign_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/npb"
)

// TestMatrixStoreRefusesNonRegularPath: OpenMatrixStore refuses a -db path
// that is a directory, a symlink or a FIFO, for a fresh run and for -resume
// alike, with an error naming it, and leaves it in place; a fresh run
// truncates a regular file rather than removing it. A fresh run used to
// remove each of the three and put a regular file there, and a resumed run
// blocked opening the FIFO.
func TestMatrixStoreRefusesNonRegularPath(t *testing.T) {
	jobs := []campaign.ScenarioJob{{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Seed: 1}}
	dir := t.TempDir()
	target := filepath.Join(dir, "target.jsonl")
	if err := os.WriteFile(target, []byte("kept\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []struct {
		name string
		make func(path string) error
	}{
		{"directory", func(p string) error { return os.Mkdir(p, 0o755) }},
		{"symlink", func(p string) error { return os.Symlink(target, p) }},
		{"fifo", func(p string) error { return syscall.Mkfifo(p, 0o644) }},
	} {
		for _, resume := range []bool{false, true} {
			path := filepath.Join(dir, fmt.Sprintf("%s-%v", kind.name, resume))
			if err := kind.make(path); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				st, err := campaign.OpenMatrixStore(path, resume, jobs, 2)
				if st != nil {
					st.Close()
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), path) {
					t.Errorf("%s, resume=%v: OpenMatrixStore = %v, want a refusal naming %s", kind.name, resume, err, path)
				}
			case <-time.After(2 * time.Second):
				t.Errorf("%s, resume=%v: OpenMatrixStore still blocked after 2 s", kind.name, resume)
			}
			if fi, err := os.Lstat(path); err != nil || fi.Mode().IsRegular() {
				t.Errorf("%s, resume=%v: the %s was replaced (%v)", kind.name, resume, kind.name, err)
			}
		}
	}
	if got, err := os.ReadFile(target); err != nil || string(got) != "kept\n" {
		t.Errorf("the symlink's target reads %q, %v", got, err)
	}

	// A fresh run empties the file itself: a second link to it sees that.
	path, link := filepath.Join(dir, "db.jsonl"), filepath.Join(dir, "link.jsonl")
	if err := os.WriteFile(path, []byte("old rows\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Link(path, link); err != nil {
		t.Fatal(err)
	}
	st, err := campaign.OpenMatrixStore(path, false, jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if got, err := os.ReadFile(link); err != nil || len(got) != 0 {
		t.Errorf("after a fresh run the file's other link reads %q, %v: it was replaced, not truncated", got, err)
	}
}
