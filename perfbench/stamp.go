package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"h2onas/internal/tensor"
)

// stamp is the configuration a result was measured under. Numbers from
// different core counts, kernel backends or toolchains are not comparable,
// so compare refuses to diff results whose stamps disagree on any of them
// (the rule cmd/benchjson applies to its reports). Commit names the code
// measured and is expected to differ between the two sides of an A/B.
type stamp struct {
	GOMAXPROCS    int    `json:"gomaxprocs"`
	NumCPU        int    `json:"numcpu"`
	KernelBackend string `json:"kernel_backend"`
	GoVersion     string `json:"go_version"`
	Commit        string `json:"commit"`
}

func currentStamp() stamp {
	return stamp{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		KernelBackend: tensor.KernelBackend(),
		GoVersion:     runtime.Version(),
		Commit:        commitID("."),
	}
}

func (s stamp) String() string {
	return fmt.Sprintf("gomaxprocs=%d numcpu=%d kernel_backend=%s go=%s commit=%s",
		s.GOMAXPROCS, s.NumCPU, s.KernelBackend, s.GoVersion, s.Commit)
}

// mismatch reports why two stamps' configurations are not comparable, or
// "" when they are.
func (s stamp) mismatch(o stamp) string {
	switch {
	case s.GOMAXPROCS != o.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", s.GOMAXPROCS, o.GOMAXPROCS)
	case s.NumCPU != o.NumCPU:
		return fmt.Sprintf("NumCPU %d vs %d", s.NumCPU, o.NumCPU)
	case s.KernelBackend != o.KernelBackend:
		return fmt.Sprintf("kernel backend %q vs %q", s.KernelBackend, o.KernelBackend)
	case s.GoVersion != o.GoVersion:
		return fmt.Sprintf("Go %s vs %s", s.GoVersion, o.GoVersion)
	}
	return ""
}

// commitID names the code under root: the git commit when root is a git
// checkout, otherwise "src-" and a digest of the Go sources and module
// files (a benchmark checkout need not carry .git).
func commitID(root string) string {
	if id := gitHead(root); id != "" {
		return id
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only leaves the digest weaker
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// gitHead resolves .git/HEAD without running git.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	f, err := os.Open(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if id, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return id
		}
	}
	return ""
}

// record is one run's stamped result, as written under resultDir.
type record struct {
	Stamp    stamp  `json:"stamp"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Report   report `json:"report"`
}

func readRecords(paths []string) ([]record, error) {
	var out []record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// group collects each metric's values per workload and trace mode, in
// first-seen order of the keys.
type group struct {
	key    string
	values map[string][]float64
	stamp  stamp
}

func groupRecords(recs []record) ([]*group, error) {
	var gs []*group
	byKey := map[string]*group{}
	for _, r := range recs {
		key := fmt.Sprintf("%s trace=%v", r.Workload, r.Trace)
		g := byKey[key]
		if g == nil {
			g = &group{key: key, values: map[string][]float64{}, stamp: r.Stamp}
			byKey[key] = g
			gs = append(gs, g)
		}
		if why := g.stamp.mismatch(r.Stamp); why != "" {
			return nil, fmt.Errorf("%s: refusing to pool results measured under different configurations: %s", key, why)
		}
		for name, m := range r.Report.Metrics {
			g.values[name] = append(g.values[name], m.Value)
		}
	}
	return gs, nil
}

// spreadCmd prints, per workload and metric, the median and the quartile
// spread of the given results, and flags any end-to-end spread that is
// not below a third of its bound.
func spreadCmd(paths []string) error {
	recs, err := readRecords(paths)
	if err != nil {
		return err
	}
	gs, err := groupRecords(recs)
	if err != nil {
		return err
	}
	printSpreads(os.Stdout, gs)
	return nil
}

func printSpreads(w io.Writer, gs []*group) {
	for _, g := range gs {
		fmt.Fprintf(w, "%s (%s)\n", g.key, g.stamp)
		for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			vs, ok := g.values[d.Name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("  %-28s n=%-3d median %-12.6g", d.Name, len(vs), median(vs))
			if sp, err := spread(vs); err == nil {
				line += fmt.Sprintf(" spread %.4f", sp)
				if d.Bound > 0 && sp >= d.Bound/3 {
					line += fmt.Sprintf("  UNSTEADY (bound %.2f)", d.Bound)
				}
			}
			fmt.Fprintln(w, line)
		}
	}
}

// compareCmd compares two sets of results (base files, then "--", then
// current files; or exactly two files) metric by metric. It refuses to
// compare results measured under different configurations.
func compareCmd(args []string) error {
	var basePaths, curPaths []string
	if i := indexOf(args, "--"); i >= 0 {
		basePaths, curPaths = args[:i], args[i+1:]
	} else if len(args) == 2 {
		basePaths, curPaths = args[:1], args[1:]
	} else {
		return errors.New("usage: perfbench compare BASE.json CUR.json | BASE... -- CUR...")
	}
	base, err := readRecords(basePaths)
	if err != nil {
		return err
	}
	cur, err := readRecords(curPaths)
	if err != nil {
		return err
	}
	if len(base) == 0 || len(cur) == 0 {
		return errors.New("compare needs results on both sides")
	}
	if why := base[0].Stamp.mismatch(cur[0].Stamp); why != "" {
		fmt.Printf("refusing to compare: results measured under different configurations (%s)\n", why)
		return nil
	}
	bg, err := groupRecords(base)
	if err != nil {
		return err
	}
	cg, err := groupRecords(cur)
	if err != nil {
		return err
	}
	for _, b := range bg {
		var c *group
		for _, x := range cg {
			if x.key == b.key {
				c = x
			}
		}
		if c == nil {
			continue
		}
		fmt.Printf("%s: %s vs %s\n", b.key, b.stamp.Commit, c.stamp.Commit)
		for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			bv, cv := b.values[d.Name], c.values[d.Name]
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			bm, cm := median(bv), median(cv)
			change := 0.0
			if bm != 0 {
				change = (cm - bm) / bm
			}
			line := fmt.Sprintf("  %-28s %12.6g -> %-12.6g %+7.2f%%", d.Name, bm, cm, 100*change)
			if d.Bound > 0 && worse(d, change) > d.Bound {
				line += fmt.Sprintf("  WORSE than bound %.2f", d.Bound)
			}
			fmt.Println(line)
		}
	}
	return nil
}

// worse returns by how much a relative change makes the metric worse
// (negative when it improves).
func worse(d metricDef, change float64) float64 {
	if d.Better == "higher" {
		return -change
	}
	return change
}

func indexOf(xs []string, s string) int {
	for i, x := range xs {
		if x == s {
			return i
		}
	}
	return -1
}
