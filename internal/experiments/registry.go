package experiments

import (
	"fmt"
	"sort"

	"optinline/internal/par"
)

// IDs returns all experiment identifiers in presentation order.
func IDs() []string {
	return []string{
		"fig1", "fig3", "tab1",
		"fig7", "tab2", "fig8", "fig9",
		"fig10", "fig11", "fig12", "tab3", "fig13", "fig14",
		"fig15", "fig16", "fig17", "tab4", "fig18", "fig19",
		"llvm-case", "sqlite-case",
		"mlgo-case", "outline-case", "perf-case",
		"linked-case", "pareto",
	}
}

// Run executes one experiment by ID.
func (h *Harness) Run(id string) (Result, error) {
	switch id {
	case "fig1":
		return h.Fig1(), nil
	case "fig3":
		return h.Fig3(), nil
	case "tab1":
		return h.Table1(), nil
	case "fig7":
		return h.Fig7(), nil
	case "tab2":
		return h.Table2(), nil
	case "fig8":
		return h.Fig8(), nil
	case "fig9":
		return h.Fig9(), nil
	case "fig10":
		return h.Fig10(), nil
	case "fig11":
		return h.Fig11(), nil
	case "fig12":
		return h.Fig12(), nil
	case "tab3":
		return h.Table3(), nil
	case "fig13":
		return h.Fig13(), nil
	case "fig14":
		return h.Fig14(), nil
	case "fig15":
		return h.Fig15(), nil
	case "fig16":
		return h.Fig16(), nil
	case "fig17":
		return h.Fig17(), nil
	case "tab4":
		return h.Table4(), nil
	case "fig18":
		return h.Fig18(), nil
	case "fig19":
		return h.Fig19(), nil
	case "llvm-case":
		return h.LLVMCase(), nil
	case "sqlite-case":
		return h.SQLiteCase(), nil
	case "mlgo-case":
		return h.MLGoCase(), nil
	case "outline-case":
		return h.OutlineCase(), nil
	case "perf-case":
		return h.PerfCase(), nil
	case "linked-case":
		return h.LinkedCase(), nil
	case "pareto":
		return h.Pareto(), nil
	case "linked-scale":
		// Heavy (mega-module tuning); deliberately not in IDs()/RunAll.
		return h.LinkedScale(), nil
	}
	known := IDs()
	sort.Strings(known)
	return Result{}, fmt.Errorf("experiments: unknown id %q (known: %v)", id, known)
}

// RunAll executes every experiment, concurrently up to the harness's
// worker budget, and returns the results in presentation order. The
// expensive per-file work (exhaustive searches, tuning sessions) is
// precomputed first in the same sequence a sequential run would trigger
// it, so the rendered output is identical for any worker count.
func (h *Harness) RunAll() []Result {
	h.exhaustiveSet()
	h.ensureTuned()
	ids := IDs()
	out := make([]Result, len(ids))
	par.For(len(ids), h.cfg.Workers, func(i int) {
		r, err := h.Run(ids[i])
		if err != nil {
			r = Result{ID: ids[i], Title: ids[i], Text: "error: " + err.Error()}
		}
		out[i] = r
	})
	return out
}
