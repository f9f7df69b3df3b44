// Package cli is the shared front of the engine CLIs (mincc, inlinesearch,
// inlinetune, inlinebench). It registers the flags they all carry — the
// differential-oracle switches, the persistent function cache, pprof
// profiles, -target and the -link block — and owns what those flags do:
// starting and stopping profiles, opening and saving the fn-cache store,
// applying the oracle switches to every compiler, building link units from
// files, and replaying -relink edit scripts (replay.go). Each command keeps
// only its own flags and report formatting.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/ir"
	"optinline/internal/link"
	"optinline/internal/source"
)

// Engine holds the flags every engine CLI registers and the fn-cache store
// they select.
type Engine struct {
	name                        string // command name, prefixing diagnostics
	noDelta, noPrune, noFnCache bool
	cacheDir                    string
	cpuProfile, memProfile      string
	fncache                     *compile.FnCache
}

// NewEngine registers the engine flags on fs for the command called name.
func NewEngine(fs *flag.FlagSet, name string) *Engine {
	e := &Engine{name: name}
	fs.BoolVar(&e.noDelta, "no-delta", false, "disable the incremental delta-evaluation engine (differential oracle)")
	fs.BoolVar(&e.noPrune, "no-prune", false, "disable the branch-and-bound search layer (differential oracle)")
	fs.BoolVar(&e.noFnCache, "no-fncache", false, "disable the per-function compile cache (differential oracle)")
	fs.StringVar(&e.cacheDir, "cache-dir", "", "persist the per-function content cache in this directory")
	fs.StringVar(&e.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&e.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	return e
}

// Start begins a run after flag parsing: it starts the CPU profile, if one
// was requested, and opens the fn-cache store. The returned stop ends the
// CPU profile and writes the heap profile; call it (deferred) on every
// exit path once Start succeeds.
func (e *Engine) Start() (stop func(), err error) {
	if e.fncache, err = compile.OpenFnCache(e.cacheDir); err != nil {
		return nil, err
	}
	var cpu *os.File
	if e.cpuProfile != "" {
		if cpu, err = os.Create(e.cpuProfile); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if e.memProfile != "" {
			if err := writeHeapProfile(e.memProfile); err != nil {
				fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", e.name, err)
			}
		}
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// FnCache returns the store Start opened, to be shared by every compiler
// of the run.
func (e *Engine) FnCache() *compile.FnCache { return e.fncache }

// Finish saves the fn-cache store back to -cache-dir, if one was given,
// and prints its stats line on stderr.
func (e *Engine) Finish() {
	if e.cacheDir != "" {
		if err := e.fncache.Save(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
		}
	}
	fmt.Fprintf(os.Stderr, "fn content cache: %v\n", e.fncache.Stats())
}

// Configure applies the oracle switches to one compiler. It is the only
// place they are applied: direct compilers call it, and linked runs pass
// it as link.ShardOptions.Configure so every shard gets the same switches.
// The compiler carries them to every layer built on it: -no-delta turns off
// the size delta engine and every cycle pricer's repricing, -no-prune the
// search's branch-and-bound layer, -no-fncache the per-function cache.
func (e *Engine) Configure(c *compile.Compiler) {
	if e.noDelta {
		c.SetDelta(false)
	}
	if e.noPrune {
		c.SetPrune(false)
	}
	if e.noFnCache {
		c.SetFnCache(false)
	}
}

// NewCompiler builds a configured compiler over mod that shares the run's
// fn-cache store.
func (e *Engine) NewCompiler(mod *ir.Module, target codegen.Target, check bool) *compile.Compiler {
	c := compile.NewWithOptions(mod, target, compile.Options{Check: check, FnCache: e.fncache})
	e.Configure(c)
	return c
}

// Shard returns the shard options of a linked run: every compiler shares
// the run's fn-cache store and gets the oracle switches.
func (e *Engine) Shard(target codegen.Target, check bool, workers int) link.ShardOptions {
	return link.ShardOptions{
		Target:    target,
		Compile:   compile.Options{Check: check, FnCache: e.fncache},
		Configure: e.Configure,
		Workers:   workers,
	}
}

// ParseTarget maps a -target value to its size model.
func ParseTarget(name string) (codegen.Target, error) {
	switch name {
	case "x86":
		return codegen.TargetX86, nil
	case "wasm":
		return codegen.TargetWASM, nil
	}
	return 0, fmt.Errorf("unknown target %q (want x86 or wasm)", name)
}

// Jobs registers -jobs on fs: the run's worker budget, GOMAXPROCS by
// default. Every engine layer also reads 0 as GOMAXPROCS, and a negative
// value as sequential where it has a sequential path.
func Jobs(fs *flag.FlagSet) *int {
	return fs.Int("jobs", runtime.GOMAXPROCS(0), "parallel workers (0 = GOMAXPROCS; results are identical for every value)")
}

type targetFlag struct{ t *codegen.Target }

func (f targetFlag) String() string {
	if f.t == nil {
		return ""
	}
	return f.t.String()
}

func (f targetFlag) Set(name string) error {
	t, err := ParseTarget(name)
	if err == nil {
		*f.t = t
	}
	return err
}

// Target registers -target on fs; flag parsing rejects unknown targets.
func Target(fs *flag.FlagSet) *codegen.Target {
	t := new(codegen.Target)
	*t = codegen.TargetX86
	fs.Var(targetFlag{t}, "target", "size model: `x86|wasm`")
	return t
}

// Link holds the -link block shared by mincc, inlinesearch and inlinetune.
type Link struct {
	Enabled  bool   // -link
	Dup      string // -link-dup policy name
	Relink   string // -relink edit-script path
	NoRelink bool   // -no-relink: cold full link at every step (oracle)
}

// NewLink registers the -link block on fs.
func NewLink(fs *flag.FlagSet) *Link {
	l := &Link{}
	fs.BoolVar(&l.Enabled, "link", false, "link all argument files into one module (LTO-style)")
	fs.StringVar(&l.Dup, "link-dup", "error", "with -link: duplicate exported symbol policy: error|rename")
	fs.StringVar(&l.Relink, "relink", "", "replay an edit script against an incremental re-link session")
	fs.BoolVar(&l.NoRelink, "no-relink", false, "with -relink: cold full link at every step (differential oracle)")
	return l
}

// Active reports whether the run links its argument files.
func (l *Link) Active() bool { return l.Enabled || l.Relink != "" }

// Options parses -link-dup into the linker options.
func (l *Link) Options() (link.Options, error) {
	switch l.Dup {
	case "error":
		return link.Options{DupExported: link.DupExportedError}, nil
	case "rename":
		return link.Options{DupExported: link.DupExportedRename}, nil
	}
	return link.Options{}, fmt.Errorf("-link-dup: unknown policy %q (want error or rename)", l.Dup)
}

// FileTUs returns one lazily loaded link unit per source file, named by
// its path.
func FileTUs(files []string) []link.TU {
	tus := make([]link.TU, 0, len(files))
	for _, path := range files {
		tus = append(tus, fileTU(path, path))
	}
	return tus
}

func fileTU(name, path string) link.TU {
	return link.LazyTU(name, func() (*ir.Module, error) { return source.Load(path) })
}
