package main

// The harness the CLI pins share: run in-process on a goroutine, the test
// binary re-executed as the CLI where a pin needs a process of its own, and
// the exit-code contract of run.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"serfi/internal/dist"
	"serfi/internal/mach"
	"serfi/internal/obs"
)

// cliProcessEnv makes the test binary run main instead of its tests: the
// pins that need a process of their own (a real signal, or one metrics
// registry per worker) start os.Args[0] with it set.
const cliProcessEnv = "SERFI_TEST_CLI_PROCESS"

func TestMain(m *testing.M) {
	if os.Getenv(cliProcessEnv) == "1" {
		main()
	}
	os.Exit(m.Run())
}

// waitLimit bounds every wait on a run, a process or a server.
const waitLimit = 2 * time.Minute

// syncBuffer is a bytes.Buffer a run may write while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// cli runs the CLI in-process to completion and returns its exit code,
// stdout and stderr.
func cli(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// mustCLI is cli for a run that must exit 0; it returns stdout.
func mustCLI(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := cli(t, args...)
	if code != 0 {
		t.Fatalf("serfi %s: exit %d\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), code, stdout, stderr)
	}
	return stdout
}

// bgRun is one in-process run on its own goroutine; cancelling it is the
// SIGINT.
type bgRun struct {
	args           []string
	cancel         context.CancelFunc
	done           chan struct{}
	code           int
	stdout, stderr syncBuffer
}

func startCLI(t *testing.T, args ...string) *bgRun {
	ctx, cancel := context.WithCancel(context.Background())
	r := &bgRun{args: args, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.code = run(ctx, args, &r.stdout, &r.stderr)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-r.done:
		case <-time.After(waitLimit):
		}
	})
	return r
}

// mustExit waits for the run and fails the test unless it exits 0.
func (r *bgRun) mustExit(t *testing.T) {
	t.Helper()
	select {
	case <-r.done:
	case <-time.After(waitLimit):
		t.Fatalf("serfi %s still running after %v\nstdout:\n%s", strings.Join(r.args, " "), waitLimit, r.stdout.String())
	}
	if r.code != 0 {
		t.Fatalf("serfi %s: exit %d\nstdout:\n%s\nstderr:\n%s", strings.Join(r.args, " "), r.code, r.stdout.String(), r.stderr.String())
	}
}

// interrupt cancels the run, as SIGINT does, and waits for it to exit 0.
func (r *bgRun) interrupt(t *testing.T) {
	t.Helper()
	r.cancel()
	r.mustExit(t)
}

// process is the CLI in a process of its own: the test binary re-executed.
type process struct {
	cmd  *exec.Cmd
	out  syncBuffer // stdout and stderr
	done chan struct{}
}

func startProcess(t *testing.T, args ...string) *process {
	t.Helper()
	p := &process{cmd: exec.Command(os.Args[0], args...), done: make(chan struct{})}
	p.cmd.Env = append(os.Environ(), cliProcessEnv+"=1")
	p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() { p.cmd.Process.Kill() })
	return p
}

// exit waits for the process and returns its exit code.
func (p *process) exit(t *testing.T) int {
	t.Helper()
	select {
	case <-p.done:
		return p.cmd.ProcessState.ExitCode()
	case <-time.After(waitLimit):
		t.Fatalf("serfi %s still running after %v\n%s", strings.Join(p.cmd.Args[1:], " "), waitLimit, p.out.String())
		return -1
	}
}

// mustExit waits for the process and fails the test unless it exits 0.
func (p *process) mustExit(t *testing.T) {
	t.Helper()
	if code := p.exit(t); code != 0 {
		t.Fatalf("serfi %s: exit %d\n%s", strings.Join(p.cmd.Args[1:], " "), code, p.out.String())
	}
}

// signal sends sig to the process once its output holds after, the line
// that says the state sig must meet has been reached.
func (p *process) signal(t *testing.T, sig os.Signal, after string) {
	t.Helper()
	deadline := time.Now().Add(waitLimit)
	for !strings.Contains(p.out.String(), after) {
		select {
		case <-p.done:
			t.Fatalf("serfi %s exited before printing %q\n%s", strings.Join(p.cmd.Args[1:], " "), after, p.out.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("serfi %s did not print %q\n%s", strings.Join(p.cmd.Args[1:], " "), after, p.out.String())
		}
	}
	if err := p.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// startServe starts `serfi serve -addr <free> args...` and returns once it
// answers /v1/status, with its address.
func startServe(t *testing.T, args ...string) (*bgRun, string) {
	t.Helper()
	addr := freeAddr(t)
	r := startCLI(t, append([]string{"serve", "-addr", addr}, args...)...)
	awaitStatus(t, addr, r.done, func() string {
		return fmt.Sprintf("exit %d\nstdout:\n%s\nstderr:\n%s", r.code, r.stdout.String(), r.stderr.String())
	})
	return r, addr
}

// awaitStatus returns once the coordinator at addr answers /v1/status. It
// fails the test if exited closes first, printing output, or the wait
// passes waitLimit.
func awaitStatus(t *testing.T, addr string, exited <-chan struct{}, output func() string) {
	t.Helper()
	deadline := time.Now().Add(waitLimit)
	for {
		if resp, err := http.Get("http://" + addr + dist.PathStatus); err == nil {
			resp.Body.Close()
			return
		}
		select {
		case <-exited:
			t.Fatalf("serve exited before answering\n%s", output())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve at %s does not answer", addr)
		}
	}
}

// get fetches url and fails the test unless it answers 200.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, b.String())
	}
	return b.String()
}

// lint fails the test unless exposition is a Prometheus text exposition
// with at least one metric family.
func lint(t *testing.T, name, exposition string) {
	t.Helper()
	families, err := obs.Lint(strings.NewReader(exposition))
	if err == nil && families == 0 {
		err = errors.New("empty exposition (no metric families)")
	}
	if err != nil {
		t.Errorf("%s does not lint: %v", name, err)
	}
}

// sortedLines returns path's lines, sorted, without those keep refuses (nil:
// keep all).
func sortedLines(t *testing.T, keep func(string) bool, paths ...string) []string {
	t.Helper()
	var lines []string
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<24)
		for sc.Scan() {
			if keep == nil || keep(sc.Text()) {
				lines = append(lines, sc.Text())
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(lines)
	return lines
}

// sameRows fails the test unless got holds want's database rows, byte for
// byte; both are sorted.
func sameRows(t *testing.T, what string, want, got []string) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: no reference rows", what)
	}
	if !slices.Equal(want, got) {
		t.Errorf("%s: %d rows differ from the %d reference rows", what, len(got), len(want))
	}
}

// TestRunExitCodes: run returns 0, 1 for a failed command, 2 for a usage
// error and 130 for an interrupted run, and a -slowpath run leaves
// mach.ForceSlowPath as it found it.
func TestRunExitCodes(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	db := filepath.Join(t.TempDir(), "db.jsonl")
	for _, tc := range []struct {
		name   string
		ctx    context.Context
		args   []string
		code   int
		stderr string
	}{
		{"no args", nil, nil, 2, "usage: serfi {"},
		{"unknown command", nil, []string{"stats"}, 2, "usage: serfi {"},
		{"bad flag", nil, []string{"inject", "-bogus"}, 2, "flag provided but not defined: -bogus\nUsage of inject:"},
		{"help", nil, []string{"campaign", "-h"}, 0, "Usage of campaign:"},
		{"failing command", nil, []string{"inject", "-s", "armv8/IS/XYZ-1"}, 1, "serfi: "},
		{"scenarios", nil, []string{"scenarios"}, 0, ""},
		{"disasm", nil, []string{"disasm", "-s", "armv8/IS/SER-1", "-f", "main"}, 0, ""},
		{"disasm of no symbol", nil, []string{"disasm", "-f", "nosuch"}, 1, `serfi: no symbol "nosuch"`},
		{"interrupted campaign", cancelled, []string{"campaign", "-n", "2", "-only", "armv8/IS/SER", "-db", db}, 130, ""},
		{"interrupted golden", cancelled, []string{"golden"}, 130, ""},
		{"slowpath", nil, []string{"experiments", "-slowpath", "-run", "fig1"}, 0, ""},
		{"slowpath golden", nil, []string{"golden", "-slowpath", "-o", filepath.Join(t.TempDir(), "stats.txt")}, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			var stdout, stderr bytes.Buffer
			if code := run(ctx, tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
			}
			if !strings.HasPrefix(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not start with %q", &stderr, tc.stderr)
			}
			if mach.ForceSlowPath {
				mach.ForceSlowPath = false
				t.Error("the run left mach.ForceSlowPath set")
			}
		})
	}
}
