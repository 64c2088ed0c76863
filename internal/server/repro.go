package server

import (
	"fmt"
	"math/rand"
	"net/http"

	"repro/internal/campaign"
	"repro/internal/compilers"
	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/mutation"
	"repro/internal/oracle"
	"repro/internal/types"
)

// reproDoc is one served repro: the reduced triggering program, both as
// IR and translated to the compiler's source language.
type reproDoc struct {
	Bug      string `json:"bug"`
	Compiler string `json:"compiler"`
	Language string `json:"language"`
	// Kind is the input kind whose derivation reproduced the trigger.
	Kind string `json:"kind"`
	// Seed is the campaign unit seed the program re-derives from.
	Seed int64 `json:"seed"`
	// Nodes counts IR nodes before and after reduction.
	Nodes        int    `json:"nodes"`
	ReducedNodes int    `json:"reduced_nodes"`
	IR           string `json:"ir"`
	Source       string `json:"source"`
}

// handleRepro re-derives, verifies, and reduces the triggering program
// for one found bug (?bug=ID), then serves it as IR plus translated
// source. Derivation replays the campaign's own recipe — the unit's
// first triggering seed through the exact generator and mutation
// seeding the pipeline uses — so the served program is the program the
// campaign actually compiled, shrunk through the sandboxed reducer.
// Results are cached per bug: reduction costs thousands of probe
// compiles.
func (s *Server) handleRepro(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantFor(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	h := s.lookup(t, r.PathValue("id"))
	if h == nil {
		http.NotFound(w, r)
		return
	}
	bugID := r.URL.Query().Get("bug")
	if bugID == "" {
		http.Error(w, "missing ?bug=ID", http.StatusBadRequest)
		return
	}
	report := h.camp.Report()
	if report == nil {
		http.Error(w, fmt.Sprintf("campaign %s is %s; repros not available yet", h.id, h.camp.State()), http.StatusConflict)
		return
	}
	s.mu.Lock()
	doc := h.repros[bugID]
	s.mu.Unlock()
	if doc == nil {
		doc, err = buildRepro(h.opts, report, bugID)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		s.mu.Lock()
		h.repros[bugID] = doc
		s.mu.Unlock()
	}
	writeJSON(w, doc)
}

// buildRepro re-derives the first triggering program for the bug and
// reduces it.
func buildRepro(opts campaign.Options, report *campaign.Report, bugID string) (*reproDoc, error) {
	rec := report.Found[bugID]
	if rec == nil {
		return nil, fmt.Errorf("bug %s not found by this campaign", bugID)
	}
	var comp *compilers.Compiler
	for _, c := range opts.Compilers {
		if c.Name() == rec.Bug.Compiler {
			comp = c
		}
	}
	if comp == nil {
		return nil, fmt.Errorf("bug %s belongs to compiler %s, which this campaign did not test", bugID, rec.Bug.Compiler)
	}

	prog, kind, err := deriveTrigger(opts, rec, comp, bugID)
	if err != nil {
		return nil, err
	}
	heph := core.New(core.Config{
		Seed:      rec.FirstSeed,
		Generator: opts.GenConfig,
		Compilers: opts.Compilers,
		Harness:   opts.Harness,
	})
	reduced := heph.ReduceFor(prog, comp, bugID)
	src, err := heph.Translate(reduced, comp.Language())
	if err != nil {
		return nil, err
	}
	return &reproDoc{
		Bug:          bugID,
		Compiler:     comp.Name(),
		Language:     comp.Language(),
		Kind:         kind.String(),
		Seed:         rec.FirstSeed,
		Nodes:        ir.CountNodes(prog),
		ReducedNodes: ir.CountNodes(reduced),
		IR:           ir.Print(reduced),
		Source:       src,
	}, nil
}

// deriveTrigger replays the pipeline's derivation for the bug's first
// triggering seed and returns the first derived input (in pipeline
// input-kind order) that still triggers the bug. The seeding below
// must mirror internal/pipeline's Generate and Mutate stages exactly —
// that equivalence is what makes served repros faithful to the
// campaign.
func deriveTrigger(opts campaign.Options, rec *campaign.BugRecord, comp *compilers.Compiler, bugID string) (*ir.Program, oracle.InputKind, error) {
	gen := generator.New(opts.GenConfig.WithSeed(rec.FirstSeed))
	base := gen.Generate()
	b := gen.Builtins()
	if b == nil {
		b = types.NewBuiltins()
	}

	kinds := rec.FoundBy.Kinds()

	var lastErr error
	for _, kind := range kinds {
		prog, err := deriveKind(base, b, rec.FirstSeed, kind)
		if err != nil {
			lastErr = err
			continue
		}
		if prog == nil {
			continue
		}
		res := comp.Compile(prog, nil)
		for _, bug := range res.Triggered {
			if bug.ID == bugID {
				return prog, kind, nil
			}
		}
	}
	if lastErr != nil {
		return nil, 0, lastErr
	}
	return nil, 0, fmt.Errorf("bug %s: seed %d no longer derives a triggering program", bugID, rec.FirstSeed)
}

// deriveKind derives one input kind from the base program, mirroring
// pipeline.Mutate's seeding.
func deriveKind(base *ir.Program, b *types.Builtins, seed int64, kind oracle.InputKind) (*ir.Program, error) {
	switch kind {
	case oracle.Generated:
		return base, nil
	case oracle.TEMMutant:
		tem, rep := mutation.TypeErasure(base, b)
		if !rep.Changed() {
			return nil, nil
		}
		return tem, nil
	case oracle.TOMMutant:
		tom, _ := mutation.TypeOverwriting(base, b, rand.New(rand.NewSource(seed)))
		return tom, nil
	case oracle.TEMTOMMutant:
		tem, _ := mutation.TypeErasure(base, b)
		temtom, _ := mutation.TypeOverwriting(tem, b, rand.New(rand.NewSource(seed^0x5bd1e995)))
		return temtom, nil
	case oracle.REMMutant:
		rem, _ := mutation.ResolutionMutation(base, b, rand.New(rand.NewSource(seed^0x9e3779b9)))
		return rem, nil
	default:
		return nil, fmt.Errorf("input kind %s is not re-derivable from a seed", kind)
	}
}
