package compilers

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bugs"
	"repro/internal/coverage"
	"repro/internal/generator"
	"repro/internal/governor"
	"repro/internal/ir"
	"repro/internal/mutation"
	"repro/internal/types"
)

func TestCompilerIdentities(t *testing.T) {
	all := All()
	if len(all) != 3 {
		t.Fatalf("want 3 compilers, got %d", len(all))
	}
	wantSizes := map[string]int{"groovyc": 113, "kotlinc": 32, "javac": 11}
	wantLangs := map[string]string{"groovyc": "groovy", "kotlinc": "kotlin", "javac": "java"}
	for _, c := range all {
		if got := len(c.Catalog()); got != wantSizes[c.Name()] {
			t.Errorf("%s catalog size = %d, want %d", c.Name(), got, wantSizes[c.Name()])
		}
		if c.Language() != wantLangs[c.Name()] {
			t.Errorf("%s language = %s", c.Name(), c.Language())
		}
		if len(c.Versions()) == 0 {
			t.Errorf("%s has no versions", c.Name())
		}
		if c.MasterVersion() != len(c.Versions()) {
			t.Errorf("%s master index mismatch", c.Name())
		}
	}
}

func TestCorrectProgramsCompileWithoutBugHits(t *testing.T) {
	b := types.NewBuiltins()
	p := &ir.Program{Decls: []ir.Decl{
		&ir.FuncDecl{Name: "f", Ret: b.Int, Body: &ir.Const{Type: b.Int}},
	}}
	for _, c := range All() {
		res := c.Compile(p, nil)
		if res.Status != OK {
			t.Errorf("%s rejected a trivial program: %v", c.Name(), res.Diagnostics)
		}
		if !res.ReferenceOK {
			t.Errorf("%s reference verdict wrong", c.Name())
		}
	}
}

func TestIllTypedProgramsRejected(t *testing.T) {
	b := types.NewBuiltins()
	p := &ir.Program{Decls: []ir.Decl{
		&ir.FuncDecl{Name: "f", Ret: b.Int, Body: &ir.Const{Type: b.String}},
	}}
	for _, c := range All() {
		res := c.Compile(p, nil)
		if res.ReferenceOK {
			t.Fatalf("%s: reference checker should reject", c.Name())
		}
		// Unless a soundness bug fires (possible but rare for this tiny
		// program), the compiler rejects.
		if res.Status == OK && len(res.Triggered) == 0 {
			t.Errorf("%s accepted an ill-typed program without a bug firing", c.Name())
		}
	}
}

// TestCampaignFindsSeededBugs runs a miniature fuzzing loop and checks
// that all three techniques discover bugs of their designated classes.
func TestCampaignFindsSeededBugs(t *testing.T) {
	comp := Groovyc()
	found := map[string]*bugs.Bug{}
	byClass := map[bugs.TriggerClass]int{}
	record := func(res *Result) {
		for _, bg := range res.Triggered {
			if found[bg.ID] == nil {
				found[bg.ID] = bg
				byClass[bg.Class]++
			}
		}
	}
	for seed := int64(0); seed < 120; seed++ {
		g := generator.New(generator.DefaultConfig().WithSeed(seed))
		p := g.Generate()
		record(comp.Compile(p, nil))
		tem, _ := mutation.TypeErasure(p, g.Builtins())
		record(comp.Compile(tem, nil))
		if tom, _ := mutation.TypeOverwriting(p, g.Builtins(), rand.New(rand.NewSource(seed))); tom != nil {
			record(comp.Compile(tom, nil))
		}
	}
	if len(found) == 0 {
		t.Fatal("the campaign found no seeded bugs at all")
	}
	if byClass[bugs.GeneratorClass] == 0 {
		t.Error("no generator-class bugs found")
	}
	if byClass[bugs.InferenceClass] == 0 {
		t.Error("no inference-class bugs found (TEM ineffective)")
	}
	if byClass[bugs.SoundnessClass] == 0 {
		t.Error("no soundness-class bugs found (TOM ineffective)")
	}
	t.Logf("mini campaign: %d distinct bugs (%d generator, %d inference, %d soundness)",
		len(found), byClass[bugs.GeneratorClass], byClass[bugs.InferenceClass], byClass[bugs.SoundnessClass])
}

// TestTechniqueGatingHolds: generator output (fully annotated) must never
// trigger inference-class bugs, and well-typed inputs never soundness
// bugs — the mechanism behind Figure 7c.
func TestTechniqueGatingHolds(t *testing.T) {
	comp := Groovyc()
	for seed := int64(0); seed < 60; seed++ {
		g := generator.New(generator.DefaultConfig().WithSeed(seed))
		p := g.Generate()
		res := comp.Compile(p, nil)
		for _, bg := range res.Triggered {
			if bg.Class == bugs.InferenceClass {
				t.Errorf("seed %d: generator program triggered inference bug %s", seed, bg.ID)
			}
			if bg.Class == bugs.SoundnessClass || bg.Class == bugs.CombinedClass {
				t.Errorf("seed %d: well-typed program triggered %s bug %s", seed, bg.Class, bg.ID)
			}
		}
	}
}

func TestVersionedCompilation(t *testing.T) {
	comp := Groovyc()
	// Find a master-only bug and a long-standing bug.
	var masterOnly, longStanding *bugs.Bug
	for _, bg := range comp.Catalog() {
		if bg.Symptom != bugs.UCTE {
			continue
		}
		if bg.AffectedStableCount(len(comp.Versions())) == 0 && masterOnly == nil {
			masterOnly = bg
		}
		if bg.AffectedStableCount(len(comp.Versions())) == len(comp.Versions()) && longStanding == nil {
			longStanding = bg
		}
	}
	if masterOnly == nil || longStanding == nil {
		t.Fatal("catalog should contain both master-only and long-standing UCTE bugs")
	}
	if masterOnly.AffectsVersion(0) {
		t.Error("master-only bug must not affect the oldest stable version")
	}
	if !masterOnly.AffectsVersion(comp.MasterVersion()) {
		t.Error("master-only bug must affect master")
	}
	if !longStanding.AffectsVersion(0) || !longStanding.AffectsVersion(comp.MasterVersion()) {
		t.Error("long-standing bug must affect every version")
	}
}

func TestCoverageProbesFlowThroughCompiler(t *testing.T) {
	g := generator.New(generator.DefaultConfig().WithSeed(1))
	p := g.Generate()
	cov := coverage.NewCollector()
	Kotlinc().Compile(p, cov)
	lines, funcs, branches := cov.Counts()
	if lines == 0 || funcs == 0 || branches == 0 {
		t.Errorf("expected coverage, got %d/%d/%d", lines, funcs, branches)
	}
	// Region mapping for the Figure 9 breakdown.
	k := Kotlinc()
	if k.PackageFor("infer") != "resolve.calls.inference" {
		t.Errorf("kotlinc infer package = %s", k.PackageFor("infer"))
	}
	if Groovyc().PackageFor("stc") != "stc" {
		t.Errorf("groovyc stc package = %s", Groovyc().PackageFor("stc"))
	}
	if Javac().PackageFor("resolve") != "comp.Resolve" {
		t.Errorf("javac resolve package = %s", Javac().PackageFor("resolve"))
	}
	if Javac().PackageFor("unknown") != "unknown" {
		t.Error("unknown regions pass through")
	}
}

// TestIsCrashOutput pins the anchored per-language crash detector
// against every crash diagnostic the three bug catalogs can actually
// emit, the sandbox's synthesized panic banner, and near-miss rejection
// diagnostics that merely quote the words "internal error" — the shape
// the old substring detector misclassified.
func TestIsCrashOutput(t *testing.T) {
	if !IsCrashOutput("kotlinc: internal error: exception in types phase [X]") {
		t.Error("crash output not detected")
	}
	if IsCrashOutput("type mismatch: inferred type is Int") {
		t.Error("diagnostic misclassified as crash")
	}
	// Every crash-symptom bug in every catalog must be detected, and
	// attributed to its own compiler only; every UCTE/URB diagnostic
	// must not be.
	crashes, others := 0, 0
	for _, comp := range All() {
		for _, b := range comp.Catalog() {
			diag := b.Diagnostic()
			if b.Symptom == bugs.Crash {
				crashes++
				if !IsCrashOutput(diag) {
					t.Errorf("catalog crash not detected: %q", diag)
				}
				if !IsCrashOutputFor(comp.Name(), diag) {
					t.Errorf("crash not attributed to %s: %q", comp.Name(), diag)
				}
				for _, other := range All() {
					if other.Name() != comp.Name() && IsCrashOutputFor(other.Name(), diag) {
						t.Errorf("%s crash misattributed to %s: %q", comp.Name(), other.Name(), diag)
					}
				}
				continue
			}
			others++
			if IsCrashOutput(diag) {
				t.Errorf("%s diagnostic misclassified as crash: %q", b.Symptom, diag)
			}
		}
	}
	if crashes == 0 || others == 0 {
		t.Fatalf("catalog coverage too thin: %d crash, %d non-crash diagnostics", crashes, others)
	}
	// The sandbox's synthesized panic banner is a crash for any compiler.
	if !IsCrashOutput("internal error: panic: runtime error: index out of range") {
		t.Error("sandbox panic banner not detected")
	}
	if !IsCrashOutputFor("javac", "internal error: panic: boom") {
		t.Error("sandbox panic banner must attribute to any compiler")
	}
	// Near-misses: ordinary diagnostics quoting "internal error"
	// mid-string, wrong-position banners, unknown compilers.
	for _, diag := range []string{
		"kotlinc: cannot resolve symbol; report an internal error if this persists",
		"warning: internal errors are reported at https://example.invalid",
		"note: see internal error: exception in types phase [X] (quoted from another run)",
		"javac: internal error: exception in  phase [X]", // no phase word
		"scalac: internal error: exception in types phase [X]",
	} {
		if IsCrashOutput(diag) {
			t.Errorf("near-miss misclassified as crash: %q", diag)
		}
	}
	if IsCrashOutputFor("kotlinc", "javac: internal error: exception in types phase [B]") {
		t.Error("javac banner must not attribute to kotlinc")
	}
}

func TestDeterministicCompilation(t *testing.T) {
	g := generator.New(generator.DefaultConfig().WithSeed(9))
	p := g.Generate()
	c1 := Groovyc().Compile(p, nil)
	c2 := Groovyc().Compile(p, nil)
	if c1.Status != c2.Status || len(c1.Triggered) != len(c2.Triggered) {
		t.Error("compilation must be deterministic")
	}
}

func TestCompileBatch(t *testing.T) {
	g := generator.New(generator.DefaultConfig().WithSeed(3))
	batch := g.GenerateBatch(4)
	comp := Kotlinc()
	results, err := comp.CompileBatch(batch, nil)
	if err != nil {
		t.Fatalf("batch failed: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if !r.ReferenceOK {
			t.Errorf("batch program %d should be well-typed", i)
		}
	}
	// Conflicting packages abort the batch.
	batch[1].Package = batch[0].Package
	if _, err := comp.CompileBatch(batch, nil); err == nil {
		t.Error("duplicate packages must abort the batch")
	}
}

// TestCompileBatchContextHonorsGovernor pins the batched-compile
// governor fix: CompileBatchContext must exhaust a shared fuel budget
// at exactly the same step count as the equivalent sequence of single
// CompileContext calls. The old CompileBatch compiled each program
// under a background context, silently bypassing the budget.
func TestCompileBatchContextHonorsGovernor(t *testing.T) {
	g := generator.New(generator.DefaultConfig().WithSeed(3))
	batch := g.GenerateBatch(6)
	comp := Kotlinc()

	// Measure the batch's unconstrained appetite, then afford half.
	free := governor.New(1<<40, 0)
	if _, err := comp.CompileBatchContext(governor.WithBudget(context.Background(), free), batch, nil); err != nil {
		t.Fatalf("unmetered batch: %v", err)
	}
	fuel := free.Spent() / 2
	if fuel == 0 {
		t.Fatal("batch consumed no fuel; cannot exercise exhaustion")
	}

	govBatch := governor.New(fuel, 0)
	batched, err := comp.CompileBatchContext(governor.WithBudget(context.Background(), govBatch), batch, nil)
	if err != nil {
		t.Fatalf("metered batch: %v", err)
	}

	govSingle := governor.New(fuel, 0)
	ctx := governor.WithBudget(context.Background(), govSingle)
	singles := make([]*Result, len(batch))
	for i, p := range batch {
		if singles[i], err = comp.CompileContext(ctx, p, nil); err != nil {
			t.Fatalf("metered single %d: %v", i, err)
		}
	}

	exhausted := 0
	for i := range batch {
		if batched[i].Status != singles[i].Status {
			t.Errorf("program %d: batch status %v, singles status %v", i, batched[i].Status, singles[i].Status)
		}
		if batched[i].Status == ResourceExhausted {
			exhausted++
		}
	}
	if exhausted == 0 {
		t.Error("half the batch's fuel exhausted nothing; budget not shared across the batch")
	}
	if govBatch.Spent() != govSingle.Spent() {
		t.Errorf("batch spent %d steps, equivalent singles spent %d; paths must meter identically",
			govBatch.Spent(), govSingle.Spent())
	}
}

// TestCompileBatchContextCancellation: a cancelled context aborts the
// batch with the context's error, like a single CompileContext call.
func TestCompileBatchContextCancellation(t *testing.T) {
	g := generator.New(generator.DefaultConfig().WithSeed(5))
	batch := g.GenerateBatch(2)
	ctx, cancel := context.WithCancel(context.Background())
	gov := governor.New(1<<40, 0)
	gov.Bind(ctx)
	cancel()
	if _, err := Javac().CompileBatchContext(governor.WithBudget(ctx, gov), batch, nil); err == nil {
		t.Error("cancelled batch must surface the context error")
	}
}

// TestAllSharesOneSet: All hands out the same immutable compilers on
// every call, in a slice the caller owns.
func TestAllSharesOneSet(t *testing.T) {
	a, b := All(), All()
	if len(a) != 3 || a[0].Name() != "groovyc" || a[1].Name() != "kotlinc" || a[2].Name() != "javac" {
		t.Fatalf("All() = %v, want groovyc, kotlinc, javac", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("All()[%d] rebuilt: compilers must be shared across calls", i)
		}
	}
	a[0] = nil
	if All()[0] == nil {
		t.Error("All() returned a slice aliasing the shared set")
	}
}
