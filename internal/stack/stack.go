// Package stack assembles complete bootable software stacks: guest kernel +
// C runtime + (on armv7) the soft-float library + the application, linked
// into one image and installed into a configured machine. It is the
// equivalent of the paper's "software stack" column: Linux kernel, libraries
// and benchmark compiled for a specific processor model.
package stack

import (
	"fmt"

	"serfi/internal/cc"
	"serfi/internal/glib"
	"serfi/internal/kos"
	"serfi/internal/mach"
	"serfi/internal/soc"
)

// Build links app (plus any extra user programs) against a freshly built
// kernel and runtime for the given machine configuration. Programs must be
// freshly built by the caller (compilation mutates their constant pools).
func Build(cfg mach.Config, app *cc.Program, extra ...*cc.Program) (*cc.Image, error) {
	lcfg := cc.DefaultLinkConfig()
	lcfg.RAMBytes = cfg.RAMBytes
	lcfg.TickCycles = cfg.Timing.TickCycles
	user := []*cc.Program{glib.BuildCRT(), glib.BuildSync(), glib.BuildOMP(), glib.BuildMPI(), app}
	user = append(user, extra...)
	if !cfg.ISA.Feat().HasHWFloat {
		user = append(user, glib.BuildSoftFloat())
	}
	img, err := cc.Link(cfg.ISA, []*cc.Program{kos.Build()}, user, lcfg)
	if err != nil {
		return nil, fmt.Errorf("stack: %w", err)
	}
	return img, nil
}

// NewMachine builds a machine and installs the image.
func NewMachine(cfg mach.Config, img *cc.Image) *mach.Machine {
	m := mach.New(cfg)
	img.InstallTo(m)
	return m
}

// BuildAndBoot is the one-call build-and-install convenience of the tests.
func BuildAndBoot(cfg mach.Config, app *cc.Program, extra ...*cc.Program) (*mach.Machine, *cc.Image, error) {
	img, err := Build(cfg, app, extra...)
	if err != nil {
		return nil, nil, err
	}
	return NewMachine(cfg, img), img, nil
}

// Model returns the soc configuration for an ISA name and core count.
func Model(isaName string, cores int) (mach.Config, error) {
	return soc.Config(isaName, cores)
}
