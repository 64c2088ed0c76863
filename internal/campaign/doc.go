// ReportDoc: the deterministic, JSON-marshalable projection of a
// Report. A Report itself cannot round-trip through JSON (Options
// carries a Gate func, Stats carries wall-clock timings, Recovery and
// Corpus depend on how many times the run was interrupted), so the
// HTTP report endpoint and the CLI's -report-json flag both serve this
// projection instead — and because it contains only the deterministic
// fold, a campaign submitted over HTTP, paused, resumed, and fetched
// encodes byte-for-byte identically to an uninterrupted in-process run
// of the same options. CI diffs the two files directly.

package campaign

import "sort"

// BugDoc is one found bug in a ReportDoc.
type BugDoc struct {
	ID       string `json:"id"`
	Compiler string `json:"compiler"`
	Symptom  string `json:"symptom"`
	// Technique is the Figure 7c attribution.
	Technique string `json:"technique"`
	// FoundBy lists the input kinds that triggered the bug, sorted.
	FoundBy   []string `json:"found_by"`
	FirstSeed int64    `json:"first_seed"`
	Hits      int      `json:"hits"`
}

// ReportDoc is the deterministic projection of a Report. Fields with
// map keys render through String() names, lists are sorted, and
// nothing wall-clock or process-dependent is included.
type ReportDoc struct {
	Complete bool   `json:"complete"`
	Error    string `json:"error,omitempty"`
	Programs int    `json:"programs"`
	// ProgramsRun counts pipeline executions per input kind.
	ProgramsRun map[string]int `json:"programs_run"`
	Batches     int            `json:"batches"`
	TEMRepairs  int            `json:"tem_repairs"`
	// Bugs lists the distinct bugs found, sorted by compiler then ID.
	Bugs []BugDoc `json:"bugs"`
	// Verdicts counts oracle outcomes per compiler, kind, and verdict.
	Verdicts map[string]map[string]map[string]int `json:"verdicts"`
	// BugRate is the derived bug-rate-over-time series.
	BugRate []SeriesPoint `json:"bug_rate,omitempty"`
	// Disagreements lists the differential oracle's distinct findings,
	// sorted by ID; absent under the ground-truth oracle.
	Disagreements []DiffDoc `json:"disagreements,omitempty"`
	// DiffMatrix is the compiler×compiler conflict-mass matrix, keyed
	// "a|b" (names sorted; Go marshals map keys in sorted order).
	DiffMatrix map[string]int `json:"diff_matrix,omitempty"`
	// Faults is the fault ledger (deterministic: folded in unit order).
	Faults *FaultsDoc `json:"faults,omitempty"`
}

// DiffDoc is one differential-oracle disagreement in a ReportDoc.
type DiffDoc struct {
	ID string `json:"id"`
	// Source is "compilers" for a verdict-vector split, "translators"
	// for a conformance split.
	Source string `json:"source"`
	// Vector is the canonical verdict vector.
	Vector string `json:"vector"`
	// Suspects is the minority side of the vote ("unattributed" never
	// appears here; an empty list means the vote tied).
	Suspects []string `json:"suspects,omitempty"`
	// FoundBy lists the input kinds that hit the disagreement, sorted.
	FoundBy   []string `json:"found_by"`
	FirstSeed int64    `json:"first_seed"`
	Hits      int      `json:"hits"`
}

// FaultsDoc mirrors harness.Ledger with JSON-stable field names.
type FaultsDoc struct {
	PerCompiler map[string]FaultDoc `json:"per_compiler"`
}

// FaultDoc is one compiler's fault record in a ReportDoc.
type FaultDoc struct {
	Compiles    int `json:"compiles"`
	Crashes     int `json:"crashes,omitempty"`
	Timeouts    int `json:"timeouts,omitempty"`
	Retries     int `json:"retries,omitempty"`
	Errored     int `json:"errored,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
	Flaky       int `json:"flaky,omitempty"`
}

// Doc projects the report onto its deterministic document form.
func (r *Report) Doc() *ReportDoc {
	doc := &ReportDoc{
		Complete:    r.Complete(),
		Programs:    r.Opts.Programs,
		ProgramsRun: map[string]int{},
		Batches:     r.Batches,
		TEMRepairs:  r.TEMRepairs,
		Bugs:        []BugDoc{},
		Verdicts:    map[string]map[string]map[string]int{},
		BugRate:     r.BugRateSeries(),
	}
	if r.Err != nil {
		doc.Error = r.Err.Error()
	}
	for kind, n := range r.ProgramsRun {
		doc.ProgramsRun[kind.String()] = n
	}
	for id, rec := range r.Found {
		bd := BugDoc{
			ID:        id,
			Compiler:  rec.Bug.Compiler,
			Symptom:   rec.Bug.Symptom.String(),
			Technique: rec.Technique(),
			FirstSeed: rec.FirstSeed,
			Hits:      rec.Hits,
		}
		for _, kind := range rec.FoundBy.Kinds() {
			bd.FoundBy = append(bd.FoundBy, kind.String())
		}
		sort.Strings(bd.FoundBy)
		doc.Bugs = append(doc.Bugs, bd)
	}
	sort.Slice(doc.Bugs, func(i, j int) bool {
		if doc.Bugs[i].Compiler != doc.Bugs[j].Compiler {
			return doc.Bugs[i].Compiler < doc.Bugs[j].Compiler
		}
		return doc.Bugs[i].ID < doc.Bugs[j].ID
	})
	for comp, perKind := range r.Verdicts {
		m := map[string]map[string]int{}
		for kind, perVerdict := range perKind {
			vm := map[string]int{}
			for verdict, n := range perVerdict {
				vm[verdict.String()] = n
			}
			m[kind.String()] = vm
		}
		doc.Verdicts[comp] = m
	}
	for id, rec := range r.Disagreements {
		dd := DiffDoc{
			ID:        id,
			Source:    "compilers",
			Vector:    rec.Vector,
			Suspects:  rec.Suspects,
			FirstSeed: rec.FirstSeed,
			Hits:      rec.Hits,
		}
		if rec.Translators {
			dd.Source = "translators"
		}
		for _, kind := range rec.FoundBy.Kinds() {
			dd.FoundBy = append(dd.FoundBy, kind.String())
		}
		sort.Strings(dd.FoundBy)
		doc.Disagreements = append(doc.Disagreements, dd)
	}
	sort.Slice(doc.Disagreements, func(i, j int) bool {
		return doc.Disagreements[i].ID < doc.Disagreements[j].ID
	})
	if len(r.DiffMatrix) > 0 {
		doc.DiffMatrix = map[string]int{}
		for pair, n := range r.DiffMatrix {
			doc.DiffMatrix[pair] = n
		}
	}
	if r.Faults != nil && len(r.Faults.PerCompiler) > 0 {
		doc.Faults = &FaultsDoc{PerCompiler: map[string]FaultDoc{}}
		for name, fr := range r.Faults.PerCompiler {
			doc.Faults.PerCompiler[name] = FaultDoc{
				Compiles: fr.Compiles, Crashes: fr.Crashes, Timeouts: fr.Timeouts,
				Retries: fr.Retries, Errored: fr.Errored, Quarantined: fr.Quarantined,
				Flaky: fr.Flaky,
			}
		}
	}
	return doc
}
