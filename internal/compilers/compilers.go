// Package compilers implements the simulated compilers under test:
// javac, kotlinc, and groovyc stand-ins. Each wraps the reference type
// checker (internal/checker) — its "compiler codebase", instrumented with
// coverage probes — and overlays a seeded bug catalog (internal/bugs).
//
// Compilation runs the reference checker to obtain the ground-truth
// verdict, computes the program's trigger evidence, and applies the first
// firing bugs: a crash bug aborts compilation with an internal error, a
// UCTE bug makes the compiler reject a well-typed program, and a URB bug
// makes it accept an ill-typed one. The Result records the triggered bugs
// so campaign accounting has ground truth, exactly like a real campaign's
// issue tracker does after developers triage.
package compilers

import (
	"context"
	"fmt"
	"regexp"
	"sync"

	"repro/internal/bugs"
	"repro/internal/checker"
	"repro/internal/coverage"
	"repro/internal/governor"
	"repro/internal/ir"
	"repro/internal/types"
)

// Status is a compilation outcome.
type Status int

const (
	// OK: the program compiled.
	OK Status = iota
	// Rejected: the compiler reported type errors.
	Rejected
	// Crashed: the compiler threw an internal error.
	Crashed
	// TimedOut: the compiler hung past the harness watchdog's deadline.
	// Synthesized by internal/harness, never by the simulated compilers
	// themselves; a hang is a reportable bug distinct from a crash.
	TimedOut
	// ResourceExhausted: the resource governor's deterministic fuel or
	// recursion-depth budget ran out mid-check. Unlike TimedOut, this is a
	// pure function of the program and the configured budget — the same
	// program exhausts at the same step on every machine — so it can be
	// journaled, deduplicated, and replayed byte-identically.
	ResourceExhausted
)

func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Rejected:
		return "rejected"
	case Crashed:
		return "crashed"
	case TimedOut:
		return "timed out"
	case ResourceExhausted:
		return "resource exhausted"
	default:
		return fmt.Sprintf("unknown(%d)", int(s))
	}
}

// Result is the outcome of compiling one program.
type Result struct {
	Status      Status
	Diagnostics []string
	// Triggered lists the seeded bugs this compilation hit (ground truth
	// for campaign accounting; a real campaign learns this only after
	// reporting and triage).
	Triggered []*bugs.Bug
	// ReferenceOK is the reference checker's verdict: what a correct
	// compiler would have said.
	ReferenceOK bool
}

// Compiler simulates one JVM compiler.
type Compiler struct {
	name     string
	language string
	catalog  []*bugs.Bug
	versions []string
	builtins *types.Builtins
	// packages maps the neutral checker probe regions onto this
	// compiler's package naming, for the Figure 9 breakdown.
	packages map[string]string
}

// Name returns the compiler's name ("javac", "kotlinc", "groovyc").
func (c *Compiler) Name() string { return c.name }

// Language returns the translator language the compiler consumes.
func (c *Compiler) Language() string { return c.language }

// Catalog exposes the seeded bug catalog (ground truth).
func (c *Compiler) Catalog() []*bugs.Bug { return c.catalog }

// Versions lists the stable versions; the development master is the
// implicit index len(Versions()).
func (c *Compiler) Versions() []string { return c.versions }

// MasterVersion returns the index denoting the development master.
func (c *Compiler) MasterVersion() int { return len(c.versions) }

// PackageFor maps a neutral probe region ("resolve", "types", ...) to the
// compiler's package name ("resolve.calls.inference", "stc", ...).
func (c *Compiler) PackageFor(region string) string {
	if p, ok := c.packages[region]; ok {
		return p
	}
	return region
}

// Javac returns the simulated OpenJDK Java compiler.
func Javac() *Compiler {
	spec := bugs.JavacSpec()
	return &Compiler{
		name:     "javac",
		language: "java",
		catalog:  bugs.Build(spec),
		versions: versionsN("jdk-", 8, spec.StableVersions),
		builtins: types.NewBuiltins(),
		packages: map[string]string{
			"resolve": "comp.Resolve",
			"infer":   "comp.Infer",
			"types":   "code.Types",
			"stc":     "comp.Attr",
			"code":    "code.*",
		},
	}
}

// Kotlinc returns the simulated Kotlin compiler.
func Kotlinc() *Compiler {
	spec := bugs.KotlincSpec()
	return &Compiler{
		name:     "kotlinc",
		language: "kotlin",
		catalog:  bugs.Build(spec),
		versions: kotlinVersions(spec.StableVersions),
		builtins: types.NewBuiltins(),
		packages: map[string]string{
			"resolve": "resolve.calls",
			"infer":   "resolve.calls.inference",
			"types":   "types",
			"stc":     "resolve",
			"code":    "backend",
		},
	}
}

// Groovyc returns the simulated Groovy compiler.
func Groovyc() *Compiler {
	spec := bugs.GroovycSpec()
	return &Compiler{
		name:     "groovyc",
		language: "groovy",
		catalog:  bugs.Build(spec),
		versions: versionsN("groovy-2.", 0, spec.StableVersions),
		builtins: types.NewBuiltins(),
		packages: map[string]string{
			"resolve": "stc.StaticTypeCheckingSupport",
			"infer":   "stc.StaticTypeCheckingVisitor",
			"types":   "stc",
			"stc":     "stc",
			"code":    "classgen",
		},
	}
}

// All returns the three simulated compilers in the paper's order. A
// Compiler is immutable once built, so every campaign in the process
// shares one set, built on first use; each call returns a fresh slice the
// caller may filter or reorder.
func All() []*Compiler {
	return append([]*Compiler(nil), shared()...)
}

var shared = sync.OnceValue(func() []*Compiler {
	return []*Compiler{Groovyc(), Kotlinc(), Javac()}
})

func versionsN(prefix string, start, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, start+i)
	}
	return out
}

func kotlinVersions(n int) []string {
	out := make([]string, n)
	majors := []string{"1.0", "1.1", "1.2", "1.3", "1.4", "1.5", "1.6"}
	for i := range out {
		out[i] = majors[i%len(majors)] + fmt.Sprintf(".%d", i/len(majors))
	}
	return out
}

// Compile compiles the program at the development master.
func (c *Compiler) Compile(p *ir.Program, cov coverage.Recorder) *Result {
	return c.CompileAtVersion(p, c.MasterVersion(), cov)
}

// CompileContext compiles the program at the development master under the
// resource budget carried by ctx (see internal/governor). A nil/absent
// budget is unmetered, matching Compile.
func (c *Compiler) CompileContext(ctx context.Context, p *ir.Program, cov coverage.Recorder) (*Result, error) {
	return c.CompileAtVersionContext(ctx, p, c.MasterVersion(), cov)
}

// CompileAtVersion compiles the program as the given compiler version
// would: only bugs affecting that version can fire. Coverage probes (may
// be nil) observe the underlying checker — the simulated compiler's
// codebase.
func (c *Compiler) CompileAtVersion(p *ir.Program, version int, cov coverage.Recorder) *Result {
	res, err := c.CompileAtVersionContext(context.Background(), p, version, cov)
	if err != nil {
		// Only a bound, cancelled context produces an error; a background
		// context never cancels.
		panic(err)
	}
	return res
}

// CompileAtVersionContext is CompileAtVersion under the resource budget
// carried by ctx. When the governor halts the check:
//
//   - a cancelled context surfaces as (nil, ctx.Err()) so the harness
//     classifies it like any other abandoned invocation (timeout/abort);
//   - fuel or depth exhaustion yields a deterministic ResourceExhausted
//     Result. The bug overlay is skipped: the reference verdict is
//     unknown, so no accept/reject-flipping bug can meaningfully fire.
func (c *Compiler) CompileAtVersionContext(ctx context.Context, p *ir.Program, version int, cov coverage.Recorder) (*Result, error) {
	if cov == nil {
		cov = coverage.Nop{}
	}
	gov := governor.FromContext(ctx)
	res := checker.Check(p, c.builtins, checker.Options{Probes: cov, Budget: gov})
	if bail := res.Bailout; bail != nil {
		if bail.Reason == governor.Cancelled {
			err := bail.Err
			if err == nil {
				err = ctx.Err()
			}
			if err == nil {
				err = context.Canceled
			}
			return nil, err
		}
		return &Result{
			Status:      ResourceExhausted,
			Diagnostics: []string{fmt.Sprintf("resource governor: %s", bail)},
		}, nil
	}
	evidence := bugs.Evidence{
		WellTyped:    res.OK(),
		OmittedTypes: bugs.OmitsTypes(p),
		Signature:    bugs.Signature(p),
	}
	out := &Result{ReferenceOK: res.OK()}
	for _, b := range c.catalog {
		if !b.AffectsVersion(version) || !b.Fires(evidence) {
			continue
		}
		out.Triggered = append(out.Triggered, b)
	}
	// A crash dominates every other outcome.
	for _, b := range out.Triggered {
		if b.Symptom == bugs.Crash {
			out.Status = Crashed
			out.Diagnostics = append(out.Diagnostics, b.Diagnostic())
			return out, nil
		}
	}
	if res.OK() {
		// Correct outcome is acceptance; a UCTE bug flips it.
		for _, b := range out.Triggered {
			if b.Symptom == bugs.UCTE {
				out.Status = Rejected
				out.Diagnostics = append(out.Diagnostics, b.Diagnostic())
				return out, nil
			}
		}
		out.Status = OK
		return out, nil
	}
	// Correct outcome is rejection; a URB bug silently accepts.
	for _, b := range out.Triggered {
		if b.Symptom == bugs.URB {
			out.Status = OK
			out.Diagnostics = append(out.Diagnostics, b.Diagnostic())
			return out, nil
		}
	}
	out.Status = Rejected
	for _, d := range res.Diags {
		out.Diagnostics = append(out.Diagnostics, d.String())
	}
	return out, nil
}

// CompileBatch compiles a batch of programs in one (simulated) compiler
// invocation — the Section 3.5 batching optimization. In the real tool a
// batch shares one JVM bootstrap; here the shared cost is the coverage
// recorder and the invocation accounting. Programs must carry distinct
// package names (GenerateBatch guarantees this); a conflict aborts the
// whole batch the way a real compiler invocation would.
//
// CompileBatch is unmetered; budgeted or cancellable batches go through
// CompileBatchContext.
func (c *Compiler) CompileBatch(batch []*ir.Program, cov coverage.Recorder) ([]*Result, error) {
	return c.CompileBatchContext(context.Background(), batch, cov)
}

// CompileBatchContext is CompileBatch under the resource budget and
// cancellation carried by ctx: every program in the batch compiles
// through CompileAtVersionContext, so one shared fuel/depth budget
// meters the whole batch exactly as it would the equivalent sequence of
// single CompileContext calls, and cancellation aborts the remainder.
// The first cancellation error aborts the batch (like a real compiler
// invocation dying mid-run); per-program governor exhaustion is not an
// error — it yields that program's ResourceExhausted Result and the
// batch continues, since the budget position is deterministic either
// way.
func (c *Compiler) CompileBatchContext(ctx context.Context, batch []*ir.Program, cov coverage.Recorder) ([]*Result, error) {
	seen := map[string]bool{}
	for _, p := range batch {
		if p.Package != "" && seen[p.Package] {
			return nil, fmt.Errorf("%s: conflicting declarations: duplicate package %q in batch",
				c.name, p.Package)
		}
		seen[p.Package] = true
	}
	out := make([]*Result, len(batch))
	for i, p := range batch {
		res, err := c.CompileAtVersionContext(ctx, p, c.MasterVersion(), cov)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// Crash detection mirrors the paper's per-language detectors: "a
// regular expression that distinguishes compiler crashes from compiler
// diagnostic messages" (Section 3.6). The patterns are anchored to the
// two shapes a crash actually takes here — a sandbox-captured panic and
// a catalog crash banner — so an ordinary rejection diagnostic that
// merely quotes the words "internal error" is never misclassified.
var (
	// sandboxCrashPattern matches the diagnostic the harness sandbox
	// synthesizes when a compiler panics; language-neutral because the
	// sandbox sits above every compiler.
	sandboxCrashPattern = regexp.MustCompile(`^internal error: panic: `)
	// crashPatterns holds each compiler's anchored crash-banner detector.
	crashPatterns = map[string]*regexp.Regexp{}
)

func init() {
	for _, name := range []string{"javac", "kotlinc", "groovyc"} {
		crashPatterns[name] = regexp.MustCompile(`^` + name + `: internal error: exception in \S+ phase \[`)
	}
}

// IsCrashOutputFor reports whether diag is a crash banner of the named
// compiler (or a sandbox-captured panic, which any compiler can emit).
func IsCrashOutputFor(compiler, diag string) bool {
	if sandboxCrashPattern.MatchString(diag) {
		return true
	}
	re := crashPatterns[compiler]
	return re != nil && re.MatchString(diag)
}

// IsCrashOutput reports whether diag is a crash banner of any compiler
// under test.
func IsCrashOutput(diag string) bool {
	if sandboxCrashPattern.MatchString(diag) {
		return true
	}
	for _, re := range crashPatterns {
		if re.MatchString(diag) {
			return true
		}
	}
	return false
}
