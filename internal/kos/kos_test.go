package kos_test

import (
	"strings"
	"testing"

	"serfi/internal/abi"
	"serfi/internal/cc"
	"serfi/internal/mach"
	"serfi/internal/soc"
	"serfi/internal/stack"
)

func boot(t *testing.T, isaName string, cores int, app *cc.Program) (*mach.Machine, *cc.Image) {
	t.Helper()
	cfg, err := soc.Config(isaName, cores)
	if err != nil {
		t.Fatal(err)
	}
	img, err := stack.Build(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	return stack.NewMachine(cfg, img), img
}

func runToHalt(t *testing.T, m *mach.Machine, budget uint64) {
	t.Helper()
	if r := m.Run(budget); r != mach.StopHalted {
		t.Fatalf("machine stopped: %v (pc=%#x kernel=%v retired=%d console=%q)",
			r, m.Cores[0].PC, m.Cores[0].Kernel, m.TotalRetired, m.ConsoleString())
	}
}

func helloApp() *cc.Program {
	p := cc.NewProgram("hello")
	p.GlobalString("msg", "hello, kos\n")
	f := p.Func("main")
	f.Do(cc.Call("__print_str", cc.G("msg"), cc.I(11)))
	f.Ret(cc.I(7))
	return p
}

func TestBootAndHello(t *testing.T) {
	for _, isaName := range []string{"armv7", "armv8"} {
		t.Run(isaName, func(t *testing.T) {
			m, _ := boot(t, isaName, 1, helloApp())
			runToHalt(t, m, 80_000_000)
			if got := m.ConsoleString(); got != "hello, kos\n" {
				t.Errorf("console = %q", got)
			}
			if m.ExitCode != 7 {
				t.Errorf("exit code = %d, want 7", m.ExitCode)
			}
			if !m.AppExited || m.AppExitCode != 7 || m.AppSignal != 0 {
				t.Errorf("app exit = (%v, %d, %d)", m.AppExited, m.AppExitCode, m.AppSignal)
			}
			if m.AppStartRetired == 0 || m.AppEndRetired <= m.AppStartRetired {
				t.Errorf("lifespan window = [%d, %d]", m.AppStartRetired, m.AppEndRetired)
			}
		})
	}
}

func TestSegfaultKillsApp(t *testing.T) {
	p := cc.NewProgram("segv")
	f := p.Func("main")
	f.Store(cc.I(16), cc.I(1)) // null-page write
	f.Ret(cc.I(0))
	m, _ := boot(t, "armv8", 1, p)
	runToHalt(t, m, 80_000_000)
	if m.AppSignal != abi.SigSegv {
		t.Errorf("signal = %d, want %d", m.AppSignal, abi.SigSegv)
	}
	if m.ExitCode != 128+abi.SigSegv {
		t.Errorf("exit = %d", m.ExitCode)
	}
}

func TestKernelRegionProtectedFromUser(t *testing.T) {
	p := cc.NewProgram("kprot")
	f := p.Func("main")
	f.Store(cc.G("k_lock"), cc.I(1)) // user writing kernel data
	f.Ret(cc.I(0))
	m, _ := boot(t, "armv7", 1, p)
	runToHalt(t, m, 80_000_000)
	if m.AppSignal != abi.SigSegv {
		t.Errorf("signal = %d, want segfault", m.AppSignal)
	}
}

func threadApp() *cc.Program {
	p := cc.NewProgram("threads")
	p.GlobalWords("vals", 8)
	// worker(arg): vals[arg] = arg*10+1, then exit.
	w := p.Func("worker", "arg")
	w.StoreWordElem("vals", cc.V(w.Params[0]), cc.Add(cc.Mul(cc.V(w.Params[0]), cc.I(10)), cc.I(1)))
	w.Do(cc.Syscall(abi.SysThreadExit))
	w.Ret(cc.I(0))

	f := p.Func("main")
	i := f.Local("i")
	tids := p.GlobalWords("tids", 8)
	_ = tids
	f.ForRange(i, cc.I(1), cc.I(5), func() {
		f.StoreWordElem("tids", cc.V(i),
			cc.Syscall(abi.SysThreadCreate, cc.G("worker"), cc.V(i)))
	})
	f.ForRange(i, cc.I(1), cc.I(5), func() {
		f.Do(cc.Syscall(abi.SysThreadJoin, cc.LoadWordElem("tids", cc.V(i))))
	})
	s := f.Local("s")
	f.Assign(s, cc.I(0))
	f.ForRange(i, cc.I(1), cc.I(5), func() {
		f.Assign(s, cc.Add(cc.V(s), cc.LoadWordElem("vals", cc.V(i))))
	})
	f.Ret(cc.V(s)) // 11+21+31+41 = 104
	return p
}

func TestThreadsCreateJoin(t *testing.T) {
	for _, tc := range []struct {
		isa   string
		cores int
	}{{"armv7", 1}, {"armv8", 1}, {"armv8", 2}, {"armv8", 4}, {"armv7", 4}} {
		t.Run(tc.isa+"-"+string(rune('0'+tc.cores)), func(t *testing.T) {
			m, _ := boot(t, tc.isa, tc.cores, threadApp())
			runToHalt(t, m, 200_000_000)
			if m.ExitCode != 104 {
				t.Errorf("exit = %d, want 104 (console %q)", m.ExitCode, m.ConsoleString())
			}
		})
	}
}

// TestGlobalAddressFromThreadCreate: a worker entry address passed through
// the kernel must land with its argument intact.
func futexApp() *cc.Program {
	p := cc.NewProgram("futex")
	p.GlobalWords("flag", 1)
	p.GlobalWords("data", 1)
	// waiter: futex-wait until flag becomes 1, then copy data to result.
	w := p.Func("waiter", "arg")
	w.While(cc.Eq(cc.Load(cc.G("flag")), cc.I(0)), func() {
		w.Do(cc.Syscall(abi.SysFutexWait, cc.G("flag"), cc.I(0)))
	})
	w.Store(cc.G("data"), cc.Add(cc.Load(cc.G("data")), cc.I(5)))
	w.Do(cc.Syscall(abi.SysThreadExit))
	w.Ret(cc.I(0))

	f := p.Func("main")
	tid := f.Local("tid")
	f.Assign(tid, cc.Syscall(abi.SysThreadCreate, cc.G("waiter"), cc.I(0)))
	f.Store(cc.G("data"), cc.I(37))
	// Let the waiter block, then release it.
	i := f.Local("i")
	f.ForRange(i, cc.I(0), cc.I(3), func() {
		f.Do(cc.Syscall(abi.SysYield))
	})
	f.Store(cc.G("flag"), cc.I(1))
	f.Do(cc.Syscall(abi.SysFutexWake, cc.G("flag"), cc.I(8)))
	f.Do(cc.Syscall(abi.SysThreadJoin, cc.V(tid)))
	f.Ret(cc.Load(cc.G("data"))) // 42
	return p
}

func TestFutexWaitWake(t *testing.T) {
	for _, cores := range []int{1, 2} {
		m, _ := boot(t, "armv8", cores, futexApp())
		runToHalt(t, m, 300_000_000)
		if m.ExitCode != 42 {
			t.Errorf("cores=%d exit = %d, want 42", cores, m.ExitCode)
		}
	}
}

func TestPreemptionInterleavesComputeThreads(t *testing.T) {
	// Two CPU-bound threads on one core can only both finish if the
	// timer preempts them.
	p := cc.NewProgram("preempt")
	p.GlobalWords("done", 2)
	w := p.Func("spin", "arg")
	i := w.Local("i")
	w.ForRange(i, cc.I(0), cc.I(60000), func() {})
	w.StoreWordElem("done", cc.V(w.Params[0]), cc.I(1))
	w.Do(cc.Syscall(abi.SysThreadExit))
	w.Ret(cc.I(0))
	f := p.Func("main")
	t1 := f.Local("t1")
	t2 := f.Local("t2")
	f.Assign(t1, cc.Syscall(abi.SysThreadCreate, cc.G("spin"), cc.I(0)))
	f.Assign(t2, cc.Syscall(abi.SysThreadCreate, cc.G("spin"), cc.I(1)))
	f.Do(cc.Syscall(abi.SysThreadJoin, cc.V(t1)))
	f.Do(cc.Syscall(abi.SysThreadJoin, cc.V(t2)))
	f.Ret(cc.Add(cc.Load(cc.G("done")), cc.LoadWordElem("done", cc.I(1))))
	m, _ := boot(t, "armv8", 1, p)
	runToHalt(t, m, 500_000_000)
	if m.ExitCode != 2 {
		t.Errorf("exit = %d, want 2", m.ExitCode)
	}
	if m.Cores[0].Stats.CtxRestores < 4 {
		t.Errorf("too few context switches: %d", m.Cores[0].Stats.CtxRestores)
	}
}

func TestSbrk(t *testing.T) {
	p := cc.NewProgram("sbrk")
	f := p.Func("main")
	a := f.Local("a")
	b := f.Local("b")
	f.Assign(a, cc.Call("__sbrk", cc.I(4096)))
	f.Assign(b, cc.Call("__sbrk", cc.I(4096)))
	// The two arenas must be distinct and writable.
	f.Store(cc.V(a), cc.I(11))
	f.Store(cc.V(b), cc.I(31))
	f.If(cc.Ne(cc.Sub(cc.V(b), cc.V(a)), cc.I(4096)), func() {
		f.Ret(cc.I(1))
	}, nil)
	f.Ret(cc.Add(cc.Load(cc.V(a)), cc.Load(cc.V(b)))) // 42
	m, _ := boot(t, "armv8", 1, p)
	runToHalt(t, m, 80_000_000)
	if m.ExitCode != 42 {
		t.Errorf("exit = %d, want 42", m.ExitCode)
	}
}

func TestMulticoreParallelSpeedup(t *testing.T) {
	// Four compute threads: the quad-core run must finish in fewer
	// machine cycles than the single-core run.
	build := func() *cc.Program {
		p := cc.NewProgram("speed")
		w := p.Func("work", "arg")
		i := w.Local("i")
		w.ForRange(i, cc.I(0), cc.I(40000), func() {})
		w.Do(cc.Syscall(abi.SysThreadExit))
		w.Ret(cc.I(0))
		f := p.Func("main")
		tids := p.GlobalWords("tids", 4)
		_ = tids
		i2 := f.Local("i")
		f.ForRange(i2, cc.I(0), cc.I(4), func() {
			f.StoreWordElem("tids", cc.V(i2), cc.Syscall(abi.SysThreadCreate, cc.G("work"), cc.V(i2)))
		})
		f.ForRange(i2, cc.I(0), cc.I(4), func() {
			f.Do(cc.Syscall(abi.SysThreadJoin, cc.LoadWordElem("tids", cc.V(i2))))
		})
		f.Ret(cc.I(0))
		return p
	}
	run := func(cores int) uint64 {
		m, _ := boot(t, "armv8", cores, build())
		runToHalt(t, m, 2_000_000_000)
		return m.MaxCycles()
	}
	c1 := run(1)
	c4 := run(4)
	if c4*2 >= c1 {
		t.Errorf("no speedup: 1 core %d cycles, 4 cores %d", c1, c4)
	}
}

func TestDeterministicBoot(t *testing.T) {
	run := func() (uint64, uint64, string) {
		m, _ := boot(t, "armv7", 2, threadApp())
		runToHalt(t, m, 300_000_000)
		return m.TotalRetired, m.Mem.Hash(), m.ConsoleString()
	}
	r1, h1, c1 := run()
	r2, h2, c2 := run()
	if r1 != r2 || h1 != h2 || c1 != c2 {
		t.Errorf("nondeterministic boot: (%d,%x) vs (%d,%x)", r1, h1, r2, h2)
	}
}

func TestIdleCoresSleepAndScheduler(t *testing.T) {
	// Single busy thread on a quad-core: the other cores must accumulate
	// idle cycles (the paper's sub-utilization/sleep behaviour, §4.2.2).
	p := cc.NewProgram("idle")
	f := p.Func("main")
	i := f.Local("i")
	f.ForRange(i, cc.I(0), cc.I(50000), func() {})
	f.Ret(cc.I(0))
	m, _ := boot(t, "armv8", 4, p)
	runToHalt(t, m, 500_000_000)
	idle := uint64(0)
	for c := 1; c < 4; c++ {
		idle += m.Cores[c].Stats.IdleCycles
	}
	if idle == 0 {
		t.Error("secondary cores never idled")
	}
	// Kernel instructions must exist on the idle cores (scheduler runs).
	if m.Cores[1].Stats.KernelRetired == 0 {
		t.Error("idle core executed no kernel code")
	}
}

func TestConsoleHexPrinting(t *testing.T) {
	p := cc.NewProgram("hex")
	f := p.Func("main")
	f.Do(cc.Call("__print_hex32", cc.I(0xdeadbeef)))
	f.Do(cc.Call("__print_nl"))
	f.Ret(cc.I(0))
	m, _ := boot(t, "armv8", 1, p)
	runToHalt(t, m, 80_000_000)
	if got := m.ConsoleString(); !strings.HasPrefix(got, "deadbeef\n") {
		t.Errorf("console = %q", got)
	}
}
