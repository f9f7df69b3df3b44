package cli

import (
	"fmt"
	"os"
	"path/filepath"

	"optinline/internal/link"
)

// queryCLI names the command that replays each query verb of an edit
// script.
var queryCLI = map[string]string{"search": "inlinesearch", "tune": "inlinetune"}

// Step is one query step of a -relink replay: the link plan of the current
// unit set, with search and tune entry points over it. On a warm replay
// both report how much work they replayed on stderr; stdout belongs to the
// command's printer and must not depend on the mode.
type Step struct {
	N    int // 1-based position in the edit script
	Plan *link.Plan
	run  replayer
}

// Search runs the linked optimal search over the current unit set.
func (s *Step) Search(opts link.SearchOptions) (link.SearchResult, bool, error) {
	res, info, ok, err := s.run.search(opts)
	if err != nil {
		return res, ok, fmt.Errorf("step %d: %w", s.N, err)
	}
	if info != nil {
		fmt.Fprintf(os.Stderr, "step %d: %s\n", s.N, relinkLine(info))
	}
	return res, ok, nil
}

// Tune runs the linked autotuner over the current unit set.
func (s *Step) Tune(opts link.TuneOptions) (link.TuneResult, error) {
	tr, info, err := s.run.tune(opts)
	if err != nil {
		return tr, fmt.Errorf("step %d: %w", s.N, err)
	}
	if info != nil {
		init := "clean"
		if opts.Init == link.InitOs {
			init = "os"
		}
		fmt.Fprintf(os.Stderr, "step %d (%s): %s\n", s.N, init, relinkLine(info))
	}
	return tr, nil
}

func relinkLine(info *link.RelinkInfo) string {
	return fmt.Sprintf("components solved %d, replayed %d; residual solved %d, replayed %d",
		info.ComponentsSolved, info.ComponentsReplayed, info.ResidualSolved, info.ResidualReplayed)
}

// Replay replays the -relink edit script over the unit set files. A patch
// step swaps one unit's contents (patch paths resolve relative to the
// script) and prints its header; every query step whose verb is verb
// ("search" or "tune") calls query, which prints the command's report.
//
// By default the units live in an incremental link.Session: a patch that
// keeps the link surface reuses the plan, and queries replay unchanged
// components from the session's content-keyed result cache. -no-relink
// instead links afresh and solves from scratch at every step — the
// differential oracle whose stdout must match byte for byte.
func (l *Link) Replay(files []string, verb string, query func(*Step) error) error {
	opts, err := l.Options()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(l.Relink)
	if err != nil {
		return fmt.Errorf("-relink: %w", err)
	}
	ops, err := link.ParseEditScript(data)
	if err != nil {
		return fmt.Errorf("-relink %s: %w", l.Relink, err)
	}
	var run replayer
	if l.NoRelink {
		run, err = newColdReplay(FileTUs(files), opts)
	} else {
		run, err = newWarmReplay(FileTUs(files), opts)
	}
	if err != nil {
		return err
	}
	scriptDir := filepath.Dir(l.Relink)
	for i, op := range ops {
		n := i + 1
		switch op.Verb {
		case "patch":
			path := op.Path
			if !filepath.IsAbs(path) {
				path = filepath.Join(scriptDir, path)
			}
			fmt.Printf("== step %d: patch %s <- %s ==\n", n, op.TU, op.Path)
			if err := run.patch(n, fileTU(op.TU, path)); err != nil {
				return fmt.Errorf("step %d: %w", n, err)
			}
		case verb:
			plan, err := run.plan()
			if err != nil {
				return fmt.Errorf("step %d: %w", n, err)
			}
			if err := query(&Step{N: n, Plan: plan, run: run}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("step %d: %s steps replay with %s -relink", n, op.Verb, queryCLI[op.Verb])
		}
	}
	return nil
}

// replayer is the unit set a replay edits. Warm and cold are separate
// implementations on purpose: cold is the oracle for warm.
type replayer interface {
	patch(step int, tu link.TU) error
	plan() (*link.Plan, error)
	// search and tune return a nil RelinkInfo when nothing was replayed.
	search(link.SearchOptions) (link.SearchResult, *link.RelinkInfo, bool, error)
	tune(link.TuneOptions) (link.TuneResult, *link.RelinkInfo, error)
}

// warmReplay patches one incremental session.
type warmReplay struct{ sess *link.Session }

func newWarmReplay(tus []link.TU, opts link.Options) (*warmReplay, error) {
	sess, err := link.NewSession(tus, link.SessionOptions{Link: opts})
	return &warmReplay{sess}, err
}

func (w *warmReplay) patch(step int, tu link.TU) error {
	rep, err := w.sess.ReplaceNamed(tu)
	if err != nil {
		return err
	}
	if rep.PlanReused {
		fmt.Fprintf(os.Stderr, "step %d: body-only edit, plan reused\n", step)
	} else {
		fmt.Fprintf(os.Stderr, "step %d: link surface changed, plan rebuilt\n", step)
	}
	return nil
}

func (w *warmReplay) plan() (*link.Plan, error) { return w.sess.Plan(), nil }

func (w *warmReplay) search(opts link.SearchOptions) (link.SearchResult, *link.RelinkInfo, bool, error) {
	res, info, ok, err := w.sess.Search(opts)
	return res, &info, ok, err
}

func (w *warmReplay) tune(opts link.TuneOptions) (link.TuneResult, *link.RelinkInfo, error) {
	tr, info, err := w.sess.Tune(opts)
	return tr, &info, err
}

// coldReplay keeps only the current unit contents and links them afresh
// for every step.
type coldReplay struct {
	cur  []link.TU
	opts link.Options
	l    *link.Linker // linked by the latest plan call
}

func newColdReplay(tus []link.TU, opts link.Options) (*coldReplay, error) {
	c := &coldReplay{cur: tus, opts: opts}
	_, err := link.New(tus, opts)
	return c, err
}

func (c *coldReplay) patch(_ int, tu link.TU) error {
	for i := range c.cur {
		if c.cur[i].Name == tu.Name {
			c.cur[i] = tu
			_, err := link.New(c.cur, c.opts)
			return err
		}
	}
	return fmt.Errorf("link: no unit named %q", tu.Name)
}

func (c *coldReplay) plan() (*link.Plan, error) {
	var err error
	if c.l, err = link.New(c.cur, c.opts); err != nil {
		return nil, err
	}
	return c.l.Plan(), nil
}

func (c *coldReplay) search(opts link.SearchOptions) (link.SearchResult, *link.RelinkInfo, bool, error) {
	res, ok, err := c.l.OptimalSearch(opts)
	return res, nil, ok, err
}

func (c *coldReplay) tune(opts link.TuneOptions) (link.TuneResult, *link.RelinkInfo, error) {
	tr, err := c.l.Tune(opts)
	return tr, nil, err
}
