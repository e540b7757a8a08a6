package corpus

import (
	"testing"

	"repro/internal/mat"
)

func TestBuildInvariants(t *testing.T) {
	c := Build()
	if len(c.Domains) != 8 {
		t.Fatalf("domain count = %d, want 8", len(c.Domains))
	}
	for _, d := range c.Domains {
		if d.NumFunction != len(functionWords) {
			t.Errorf("%s: NumFunction = %d", d.Name, d.NumFunction)
		}
		if d.NumConcepts() <= d.NumFunction {
			t.Errorf("%s: no content concepts", d.Name)
		}
		if d.VocabSize() < d.NumConcepts() {
			t.Errorf("%s: vocab smaller than concepts", d.Name)
		}
		// Every surface must map back to exactly the concept that owns it.
		for ci := range d.Concepts {
			for _, s := range d.Concepts[ci].Surfaces {
				if got := d.SurfaceConcept(d.SurfaceID(s)); got != ci {
					t.Errorf("%s: surface %q maps to concept %d, want %d", d.Name, s, got, ci)
				}
			}
		}
	}
}

func TestDomainLookupByName(t *testing.T) {
	c := Build()
	for _, name := range []string{"it", "medical", "news", "entertainment", "sports", "finance", "travel", "gaming"} {
		if c.Domain(name) == nil {
			t.Errorf("Domain(%q) = nil", name)
		}
	}
	if c.Domain("nonexistent") != nil {
		t.Error("Domain(nonexistent) != nil")
	}
	if len(c.Names()) != 8 {
		t.Errorf("Names() = %v", c.Names())
	}
}

func TestUnknownSurface(t *testing.T) {
	c := Build()
	d := c.Domain("it")
	if d.SurfaceID("zzzzz") != UnknownSurfaceID {
		t.Error("unknown word should map to UnknownSurfaceID")
	}
	if d.SurfaceConcept(d.SurfaceID("zzzzz")) >= 0 {
		t.Error("unknown word should have no concept")
	}
}

func TestPolysemyAcrossDomains(t *testing.T) {
	c := Build()
	cases := []struct {
		word             string
		domainA, domainB string
	}{
		{"bus", "it", "travel"},
		{"virus", "it", "medical"},
		{"cell", "it", "medical"},
		{"stream", "it", "entertainment"},
		{"court", "news", "sports"},
		{"pitch", "entertainment", "sports"},
		{"driver", "it", "sports"},
		{"bank", "finance", "travel"},
		{"patch", "it", "medical"},
		{"mouse", "it", "medical"},
	}
	for _, tc := range cases {
		da, db := c.Domain(tc.domainA), c.Domain(tc.domainB)
		ca := da.SurfaceConcept(da.SurfaceID(tc.word))
		cb := db.SurfaceConcept(db.SurfaceID(tc.word))
		if ca < 0 || cb < 0 {
			t.Errorf("%q missing from %s or %s", tc.word, tc.domainA, tc.domainB)
			continue
		}
		// The same surface must restore to different canonical forms.
		canonA := da.Canonical(ca)
		canonB := db.Canonical(cb)
		if canonA == canonB {
			t.Errorf("%q restores identically (%q) in %s and %s", tc.word, canonA, tc.domainA, tc.domainB)
		}
	}
	if got := len(PolysemousSurfaces()); got != len(cases) {
		t.Errorf("PolysemousSurfaces lists %d words, tests cover %d", got, len(cases))
	}
}

func TestBusExampleFromPaper(t *testing.T) {
	// The paper: "bus" is a vehicle in daily life but a high-speed internal
	// connection in computer architecture.
	c := Build()
	it := c.Domain("it")
	travel := c.Domain("travel")
	ci := it.SurfaceConcept(it.SurfaceID("bus"))
	ct := travel.SurfaceConcept(travel.SurfaceID("bus"))
	if it.Canonical(ci) != "interconnect" {
		t.Errorf("it canonical for bus = %q, want interconnect", it.Canonical(ci))
	}
	if travel.Canonical(ct) != "shuttle" {
		t.Errorf("travel canonical for bus = %q, want shuttle", travel.Canonical(ct))
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	c := Build()
	g1 := NewGenerator(c, mat.NewRNG(99))
	g2 := NewGenerator(c, mat.NewRNG(99))
	for i := 0; i < 20; i++ {
		m1 := g1.Message(i%8, nil)
		m2 := g2.Message(i%8, nil)
		if m1.Text() != m2.Text() {
			t.Fatalf("same-seed generators diverged: %q vs %q", m1.Text(), m2.Text())
		}
	}
}

func TestGeneratedMessagesWellFormed(t *testing.T) {
	c := Build()
	g := NewGenerator(c, mat.NewRNG(5))
	for di := range c.Domains {
		d := c.Domains[di]
		for i := 0; i < 50; i++ {
			m := g.Message(di, nil)
			if len(m.Words) < g.MinLen || len(m.Words) > g.MaxLen {
				t.Fatalf("message length %d outside [%d,%d]", len(m.Words), g.MinLen, g.MaxLen)
			}
			if len(m.Words) != len(m.ConceptIDs) {
				t.Fatal("words and concepts misaligned")
			}
			for j, w := range m.Words {
				ci := d.SurfaceConcept(d.SurfaceID(w))
				if ci < 0 {
					t.Fatalf("generated word %q not in domain %s", w, d.Name)
				}
				if ci != m.ConceptIDs[j] {
					t.Fatalf("concept mismatch for %q: %d vs %d", w, ci, m.ConceptIDs[j])
				}
			}
		}
	}
}

func TestTailSurfacesAreRare(t *testing.T) {
	c := Build()
	g := NewGenerator(c, mat.NewRNG(13))
	canonical, tail := 0, 0
	d := c.Domain("medical")
	for i := 0; i < 2000; i++ {
		m := g.Message(d.Index, nil)
		for j, w := range m.Words {
			con := &d.Concepts[m.ConceptIDs[j]]
			// Concepts carrying a curated polyseme follow PolyProb, not
			// TailProb; exclude them here.
			if con.Function || len(con.Surfaces) < 2 || con.PolyIdx > 0 {
				continue
			}
			if w == con.Canonical() {
				canonical++
			} else {
				tail++
			}
		}
	}
	frac := float64(tail) / float64(tail+canonical)
	if frac < 0.015 || frac > 0.09 {
		t.Fatalf("tail fraction = %v, want near TailProb 0.04", frac)
	}
}

func TestIdiolectShiftsSurfaceChoice(t *testing.T) {
	c := Build()
	rng := mat.NewRNG(21)
	idio := NewIdiolect(c, rng.Split(), 0.5)
	if idio.NumPrefs() == 0 {
		t.Fatal("idiolect with strength 0.5 has no preferences")
	}
	g := NewGenerator(c, rng.Split())
	d := c.Domain("it")
	prefUsed, prefTotal := 0, 0
	for i := 0; i < 2000; i++ {
		m := g.Message(d.Index, idio)
		for j, w := range m.Words {
			con := &d.Concepts[m.ConceptIDs[j]]
			pref, ok := idio.PreferredSurface(con.Key)
			if !ok {
				continue
			}
			prefTotal++
			if w == con.Surfaces[pref] {
				prefUsed++
			}
		}
	}
	if prefTotal == 0 {
		t.Fatal("no preferred concepts sampled")
	}
	frac := float64(prefUsed) / float64(prefTotal)
	if frac < 0.8 {
		t.Fatalf("preferred surface used %v of the time, want ~Adherence 0.9", frac)
	}
}

func TestIdiolectStrengthZero(t *testing.T) {
	c := Build()
	idio := NewIdiolect(c, mat.NewRNG(3), 0)
	if idio.NumPrefs() != 0 {
		t.Fatalf("strength-0 idiolect has %d prefs", idio.NumPrefs())
	}
}

func TestNilIdiolectSafe(t *testing.T) {
	var idio *Idiolect
	if _, ok := idio.PreferredSurface("x"); ok {
		t.Fatal("nil idiolect returned a preference")
	}
	if idio.NumPrefs() != 0 {
		t.Fatal("nil idiolect has prefs")
	}
}

func TestZipfPopularityDiffersAcrossDomains(t *testing.T) {
	// The per-domain rank permutation must give different popular concepts
	// to different domains; otherwise the selection experiment degenerates.
	c := Build()
	g := NewGenerator(c, mat.NewRNG(31))
	top := make([]int, len(c.Domains))
	for di := range c.Domains {
		counts := map[int]int{}
		for i := 0; i < 500; i++ {
			m := g.Message(di, nil)
			for j, ci := range m.ConceptIDs {
				_ = j
				if !c.Domains[di].Concepts[ci].Function {
					counts[ci]++
				}
			}
		}
		best, bestN := -1, -1
		for ci, n := range counts {
			if n > bestN {
				best, bestN = ci, n
			}
		}
		top[di] = best
	}
	distinct := map[int]bool{}
	for _, ci := range top {
		distinct[ci] = true
	}
	if len(distinct) < 4 {
		t.Fatalf("top concepts identical across too many domains: %v", top)
	}
}
