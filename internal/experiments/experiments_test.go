package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestSuiteMemoises(t *testing.T) {
	r := NewRunner(Config{})
	a, err := r.Suite(workload.Type1, 4, PolicySpec{Name: "MET"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Suite(workload.Type1, 4, PolicySpec{Name: "MET"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("experiment %d: identical runs not memoised", i+1)
		}
	}
}

func TestSuiteUnknownPolicy(t *testing.T) {
	r := NewRunner(Config{})
	if _, err := r.Suite(workload.Type1, 4, PolicySpec{Name: "BOGUS"}); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestSuiteShape(t *testing.T) {
	r := NewRunner(Config{})
	outs, err := r.Suite(workload.Type2, 4, PolicySpec{Name: "APT", Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 10 {
		t.Fatalf("suite has %d outcomes, want 10", len(outs))
	}
	for i, o := range outs {
		if o.MakespanMs <= 0 {
			t.Errorf("experiment %d makespan %v", i+1, o.MakespanMs)
		}
		if o.Policy != "APT" {
			t.Errorf("experiment %d policy %q", i+1, o.Policy)
		}
	}
}

func TestTable7MatchesPaper(t *testing.T) {
	r := NewRunner(Config{})
	a, err := r.Table7()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Table.Render(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	// Exact values from paper Table 7 / Table 14.
	for _, want := range []string{"112", "146", "397", "332", "173", "106", "17.064", "2.749", "0.093"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 7 missing %q:\n%s", want, s)
		}
	}
}

func TestFigure5MatchesPaperEndTimes(t *testing.T) {
	r := NewRunner(Config{})
	a, err := r.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.Text, "End time: 318.093") {
		t.Errorf("MET end time missing:\n%s", a.Text)
	}
	if !strings.Contains(a.Text, "End time: 212.093") {
		t.Errorf("APT end time missing:\n%s", a.Text)
	}
}

func TestMakespanTablesShape(t *testing.T) {
	r := NewRunner(Config{})
	for _, id := range []string{"table8", "table9", "table10"} {
		a, err := r.Artifact(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(a.Table.Rows) != 10 {
			t.Errorf("%s has %d rows, want 10", id, len(a.Table.Rows))
		}
		if len(a.Table.Headers) != 8 { // Graph + 7 policies
			t.Errorf("%s has %d columns, want 8", id, len(a.Table.Headers))
		}
	}
}

// At α=1.5 APT's column should match MET's on most Type-2 graphs (paper
// Table 9 shows them identical everywhere).
func TestTable9APTMimicsMET(t *testing.T) {
	r := NewRunner(Config{})
	a, err := r.Table9()
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for _, row := range a.Table.Rows {
		apt, err1 := strconv.ParseFloat(row[1], 64)
		met, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable row %v", row)
		}
		if apt == met || (met > 0 && abs(apt-met)/met < 0.02) {
			same++
		}
	}
	if same < 7 {
		t.Errorf("APT(1.5) matched MET on only %d/10 Type-2 graphs", same)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// At α=4 APT must win at least 7 of 10 Type-2 experiments against every
// other policy (paper: 9 of 10).
func TestTable10APTMostlyWins(t *testing.T) {
	r := NewRunner(Config{})
	a, err := r.Table10()
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for _, row := range a.Table.Rows {
		apt, _ := strconv.ParseFloat(row[1], 64)
		best := true
		for col := 2; col < len(row); col++ {
			v, _ := strconv.ParseFloat(row[col], 64)
			if v < apt {
				best = false
			}
		}
		if best {
			wins++
		}
	}
	if wins < 7 {
		t.Errorf("APT(α=4) won only %d/10 Type-2 experiments", wins)
	}
}

func TestAlphaSweepValley(t *testing.T) {
	r := NewRunner(Config{})
	for _, id := range []string{"figure7", "figure9"} {
		a, err := r.Artifact(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, s := range a.Figure.Series {
			// Valley: the α=4 point (index 2) must not exceed the α=1.5
			// point (index 0), and α=16 (index 4) must not undercut α=4.
			if s.Y[2] > s.Y[0] {
				t.Errorf("%s %s: no dip at α=4: %v", id, s.Name, s.Y)
			}
			if s.Y[4] < s.Y[2]-1e-9 {
				t.Errorf("%s %s: α=16 (%v) beats thresholdbrk α=4 (%v)", id, s.Name, s.Y[4], s.Y[2])
			}
		}
	}
}

func TestTable13ImprovementAtAlpha4(t *testing.T) {
	r := NewRunner(Config{})
	a, err := r.Table13()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Table.Rows) != len(Alphas) {
		t.Fatalf("rows = %d, want %d", len(a.Table.Rows), len(Alphas))
	}
	// α = 4 row: all four improvement cells positive (paper: 18.223,
	// 20.455, 15.771, 20.778).
	for _, row := range a.Table.Rows {
		if row[0] != "4" {
			continue
		}
		for col := 1; col < len(row); col++ {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				t.Fatalf("unparseable cell %q", row[col])
			}
			if v <= 0 {
				t.Errorf("α=4 improvement column %d = %v, want positive", col, v)
			}
			if v < 5 || v > 60 {
				t.Errorf("α=4 improvement column %d = %v%%, outside plausible double-digit band", col, v)
			}
		}
	}
	// α = 1.5 row: improvements near zero (APT mimics MET).
	for _, row := range a.Table.Rows {
		if row[0] != "1.5" {
			continue
		}
		for col := 1; col < len(row); col++ {
			v, _ := strconv.ParseFloat(row[col], 64)
			if abs(v) > 10 {
				t.Errorf("α=1.5 improvement column %d = %v%%, want near zero", col, v)
			}
		}
	}
}

func TestTable14RowCount(t *testing.T) {
	r := NewRunner(Config{})
	a, err := r.Table14()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Table.Rows) != 25 {
		t.Errorf("lookup table rows = %d, want 25", len(a.Table.Rows))
	}
}

func TestAllocationTablesGrowWithAlpha(t *testing.T) {
	r := NewRunner(Config{})
	a, err := r.Table15()
	if err != nil {
		t.Fatal(err)
	}
	// Sum alternative assignments per α; they must be non-decreasing from
	// α=1.5 to α=4 and positive at α=4 (paper Tables 15/16).
	sums := map[string]int{}
	for _, row := range a.Table.Rows {
		n, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatalf("unparseable total %q", row[3])
		}
		sums[row[0]] += n
	}
	if sums["4"] == 0 {
		t.Error("no alternative assignments at α=4")
	}
	if sums["1.5"] > sums["4"] {
		t.Errorf("alternative assignments shrank with α: 1.5→%d, 4→%d", sums["1.5"], sums["4"])
	}
}

func TestArtifactRegistryComplete(t *testing.T) {
	r := NewRunner(Config{})
	ids := IDs()
	if len(ids) != 21 {
		t.Fatalf("registry has %d artifacts, want 21", len(ids))
	}
	// Regenerate a cheap subset end-to-end through the registry; the rest
	// are exercised by their dedicated tests and the benches.
	for _, id := range []string{"table7", "figure5", "table14"} {
		a, err := r.Artifact(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		if err := a.Render(&buf); err != nil {
			t.Fatalf("%s render: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s rendered empty", id)
		}
	}
	if _, err := r.Artifact("nope"); err == nil {
		t.Error("unknown artifact accepted")
	}
}

func TestSortedIDsSorted(t *testing.T) {
	ids := SortedIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("not sorted: %v", ids)
		}
	}
}

func TestLambdaTablesPositive(t *testing.T) {
	r := NewRunner(Config{})
	for _, id := range []string{"table11", "table12"} {
		a, err := r.Artifact(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, row := range a.Table.Rows {
			for col := 1; col < len(row); col++ {
				v, err := strconv.ParseFloat(row[col], 64)
				if err != nil {
					t.Fatalf("%s unparseable cell %q", id, row[col])
				}
				if v < 0 {
					t.Errorf("%s negative λ %v", id, v)
				}
			}
		}
	}
}
