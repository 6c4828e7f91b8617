package report

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "T",
		Headers: []string{"A", "Long header"},
		Note:    "note",
	}
	tab.AddRow(1, "x")
	tab.AddRow("wide cell value", 2)
	out := tab.Render()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "Long header") ||
		!strings.Contains(out, "wide cell value") || !strings.Contains(out, "note") {
		t.Errorf("render missing pieces:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[2], "---") {
		t.Errorf("separator row missing: %q", lines[2])
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]int{3, 1, 3, 8, 4})
	if len(pts) != 4 {
		t.Fatalf("CDF points = %v", pts)
	}
	if pts[0].X != 1 || pts[0].Frac != 0.2 {
		t.Errorf("first point %v", pts[0])
	}
	if pts[1].X != 3 || pts[1].Frac != 0.6 {
		t.Errorf("dup-collapsed point %v", pts[1])
	}
	if last := pts[len(pts)-1]; last.X != 8 || last.Frac != 1.0 {
		t.Errorf("last point %v", last)
	}
	if CDF(nil) != nil {
		t.Error("empty CDF should be nil")
	}
	if out := RenderCDF("title", pts); !strings.Contains(out, "title") || !strings.Contains(out, "1.00") {
		t.Errorf("RenderCDF output:\n%s", out)
	}
}

func TestStats(t *testing.T) {
	s := []int{1, 2, 3, 4}
	if m := Median(s); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if m := Median([]int{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v", m)
	}
	if m := Mean(s); m != 2.5 {
		t.Errorf("mean = %v", m)
	}
	if m := Max(s); m != 4 {
		t.Errorf("max = %v", m)
	}
	if Median(nil) != 0 || Mean(nil) != 0 || Max(nil) != 0 {
		t.Error("empty-sample stats should be 0")
	}
}

func TestCountLOC(t *testing.T) {
	root := RepoRoot()
	n, err := CountLOC(filepath.Join(root, "internal", "dialect"))
	if err != nil {
		t.Fatal(err)
	}
	// dialect.go is ~100 lines; test files must be excluded.
	if n < 30 || n > 400 {
		t.Errorf("dialect LOC = %d, implausible", n)
	}
}

func TestRepoRootFindsGoMod(t *testing.T) {
	root := RepoRoot()
	if root == "." {
		t.Skip("not run inside the repository")
	}
	if _, err := CountLOC(filepath.Join(root, "internal")); err != nil {
		t.Errorf("internal tree unreadable from root %s: %v", root, err)
	}
}

func TestStatementHistogram(t *testing.T) {
	h := NewStatementHistogram()
	h.AddCase([]string{"CREATE TABLE", "INSERT", "INSERT", "SELECT"}, "SELECT", "contains")
	h.AddCase([]string{"CREATE TABLE", "VACUUM"}, "VACUUM", "error")
	if h.Total != 2 {
		t.Errorf("total = %d", h.Total)
	}
	if h.Counts["INSERT"] != 1 {
		t.Errorf("INSERT counted per-case, got %d", h.Counts["INSERT"])
	}
	if h.Counts["CREATE TABLE"] != 2 {
		t.Errorf("CREATE TABLE count = %d", h.Counts["CREATE TABLE"])
	}
	if h.Trigger["SELECT"]["contains"] != 1 || h.Trigger["VACUUM"]["error"] != 1 {
		t.Errorf("trigger map wrong: %v", h.Trigger)
	}
	out := h.Render("fig")
	if !strings.Contains(out, "CREATE TABLE") || !strings.Contains(out, "100.0%") {
		t.Errorf("render:\n%s", out)
	}
	// INSERT, SELECT and VACUUM tie at one case each: name order.
	if i, s, v := strings.Index(out, "INSERT"), strings.Index(out, "SELECT"), strings.Index(out, "VACUUM"); !(i < s && s < v) {
		t.Errorf("tied kinds not in name order:\n%s", out)
	}
}
