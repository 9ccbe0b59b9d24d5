// Package soc assembles the six processor models evaluated in the paper:
// ARM Cortex-A9-class (armv7) and Cortex-A72-class (armv8) systems with
// single, dual and quad-core variants, each with the paper's cache
// configuration (L1I 32kB/4-way, L1D 32kB/4-way, shared L2 512kB/8-way).
package soc

import (
	"fmt"

	"serfi/internal/cache"
	"serfi/internal/isa/armv7"
	"serfi/internal/isa/armv8"
	"serfi/internal/mach"
)

// DefaultRAM is the simulated physical memory size.
const DefaultRAM = 24 << 20

// TickCycles is the guest scheduler quantum programmed into the per-core
// timer. It is scaled to the miniaturized workloads the same way the
// paper's 10ms Linux tick relates to its full-size benchmarks.
const TickCycles = 20000

// CortexA9 returns the machine configuration of the ARMv7 model.
func CortexA9(cores int) mach.Config {
	return mach.Config{
		ISA:      armv7.New(),
		Cores:    cores,
		RAMBytes: DefaultRAM,
		Timing: mach.TimingModel{
			Name:       "cortex-a9",
			IntALU:     1,
			Mul:        4,
			Div:        20, // A9 class: iterative/microcoded division
			FPALU:      4,  // unused: armv7 model has no hardware FP
			FPDiv:      25,
			LdSt:       1,
			Branch:     1,
			Mispredict: 9,
			ExcEntry:   12,
			MMIO:       10,
			TickCycles: TickCycles,
		},
		Cache: cache.DefaultConfig(),
	}
}

// CortexA72 returns the machine configuration of the ARMv8 model.
func CortexA72(cores int) mach.Config {
	return mach.Config{
		ISA:      armv8.New(),
		Cores:    cores,
		RAMBytes: DefaultRAM,
		Timing: mach.TimingModel{
			Name:       "cortex-a72",
			IntALU:     1,
			Mul:        3,
			Div:        12,
			FPALU:      3,
			FPDiv:      17,
			LdSt:       1,
			Branch:     1,
			Mispredict: 14, // deeper pipeline than the A9
			ExcEntry:   14,
			MMIO:       10,
			TickCycles: TickCycles,
		},
		Cache: cache.DefaultConfig(),
	}
}

// Config returns the machine configuration for an ISA name and core count.
func Config(isaName string, cores int) (mach.Config, error) {
	switch isaName {
	case "armv7":
		return CortexA9(cores), nil
	case "armv8":
		return CortexA72(cores), nil
	}
	return mach.Config{}, fmt.Errorf("soc: unknown ISA %q", isaName)
}
