package corpus

import "fmt"

// Domain is a fully built domain knowledge base: the lexicon a
// domain-specialized semantic codec is trained on.
type Domain struct {
	// Name is the domain identifier, e.g. "it".
	Name string
	// Index is the position within the corpus' domain list.
	Index int
	// Concepts holds function concepts first, then content concepts.
	Concepts []Concept
	// NumFunction is the count of leading function-word concepts.
	NumFunction int

	// surfaces is the deterministic local lexicon; index 0 is the unknown
	// surface "<unk>".
	surfaces   []string
	surfaceIDs map[string]int
	// surfaceConcept maps local surface ID to concept index (-1 for unknown).
	surfaceConcept []int
}

// UnknownSurfaceID is the local surface ID reserved for out-of-domain words.
const UnknownSurfaceID = 0

// VocabSize returns the number of local surfaces including the unknown
// surface.
func (d *Domain) VocabSize() int { return len(d.surfaces) }

// NumConcepts returns the number of concepts in the domain.
func (d *Domain) NumConcepts() int { return len(d.Concepts) }

// SurfaceID returns the local ID for word, or UnknownSurfaceID when the
// word is not part of this domain's lexicon.
func (d *Domain) SurfaceID(word string) int {
	if id, ok := d.surfaceIDs[word]; ok {
		return id
	}
	return UnknownSurfaceID
}

// SurfaceIDsInto resolves each word to its local surface ID (SurfaceID),
// writing into dst (length len(words)): the one string lookup per token the
// sender side pays; everything downstream works on the IDs.
func (d *Domain) SurfaceIDsInto(dst []int, words []string) {
	if len(dst) != len(words) {
		panic("corpus: SurfaceIDsInto dst length mismatch")
	}
	for i, w := range words {
		dst[i] = d.SurfaceID(w)
	}
}

// SurfaceConcept returns the concept index the local surface id (as
// SurfaceID returns it) expresses, or -1 for the unknown surface.
func (d *Domain) SurfaceConcept(id int) int { return d.surfaceConcept[id] }

// Canonical returns the canonical surface of concept index ci.
func (d *Domain) Canonical(ci int) string {
	if ci < 0 || ci >= len(d.Concepts) {
		return "<unk>"
	}
	return d.Concepts[ci].Canonical()
}

// ContentConcepts returns the indices of non-function concepts.
func (d *Domain) ContentConcepts() []int {
	out := make([]int, 0, len(d.Concepts)-d.NumFunction)
	for i := d.NumFunction; i < len(d.Concepts); i++ {
		out = append(out, i)
	}
	return out
}

// Corpus is the complete multi-domain language definition.
type Corpus struct {
	Domains []*Domain
	byName  map[string]int
}

// Build constructs the built-in eight-domain corpus. The result is fully
// deterministic. Build panics if the static domain data violates its
// invariants (duplicate canonical surfaces across domains, or a surface
// bound to two concepts within one domain); the corpus tests exercise these
// invariants.
func Build() *Corpus {
	canonOwner := make(map[string]string, 256)
	corp := &Corpus{
		Domains: make([]*Domain, 0, len(domainSpecs)),
		byName:  make(map[string]int, len(domainSpecs)),
	}
	for di, spec := range domainSpecs {
		d := &Domain{
			Name:        spec.name,
			Index:       di,
			NumFunction: len(functionWords),
			surfaces:    make([]string, 0, 1+len(functionWords)+3*len(spec.concepts)),
			surfaceIDs:  make(map[string]int, 128),
		}
		d.surfaces = append(d.surfaces, "<unk>")
		d.surfaceConcept = append(d.surfaceConcept, -1)

		addSurface := func(word string, concept int) {
			if prev, ok := d.surfaceIDs[word]; ok {
				panic(fmt.Sprintf("corpus: surface %q bound to two concepts (%d and %d) in domain %s",
					word, d.surfaceConcept[prev], concept, d.Name))
			}
			d.surfaceIDs[word] = len(d.surfaces)
			d.surfaces = append(d.surfaces, word)
			d.surfaceConcept = append(d.surfaceConcept, concept)
		}

		polySet := make(map[string]struct{}, 16)
		for _, p := range PolysemousSurfaces() {
			polySet[p] = struct{}{}
		}
		for _, fw := range functionWords {
			ci := len(d.Concepts)
			d.Concepts = append(d.Concepts, Concept{
				Key:      "fn:" + fw,
				Surfaces: []string{fw},
				Function: true,
				PolyIdx:  -1,
			})
			addSurface(fw, ci)
		}
		for _, surfaces := range spec.concepts {
			canonical := surfaces[0]
			if owner, ok := canonOwner[canonical]; ok {
				panic(fmt.Sprintf("corpus: canonical surface %q reused by domains %s and %s",
					canonical, owner, spec.name))
			}
			canonOwner[canonical] = spec.name
			ci := len(d.Concepts)
			polyIdx := -1
			for si, s := range surfaces {
				if _, ok := polySet[s]; ok && si > 0 {
					polyIdx = si
				}
			}
			d.Concepts = append(d.Concepts, Concept{
				Key:      spec.name + ":" + canonical,
				Surfaces: append([]string(nil), surfaces...),
				PolyIdx:  polyIdx,
			})
			for _, s := range surfaces {
				addSurface(s, ci)
			}
		}
		corp.byName[spec.name] = di
		corp.Domains = append(corp.Domains, d)
	}
	return corp
}

// Domain returns the domain with the given name, or nil if absent.
func (c *Corpus) Domain(name string) *Domain {
	if i, ok := c.byName[name]; ok {
		return c.Domains[i]
	}
	return nil
}

// Names returns all domain names in index order.
func (c *Corpus) Names() []string {
	out := make([]string, len(c.Domains))
	for i, d := range c.Domains {
		out[i] = d.Name
	}
	return out
}
