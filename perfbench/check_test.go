package main

import (
	"strings"
	"testing"

	"quepa/internal/augment"
	"quepa/internal/core"
)

// The hand-built graph, with probabilities that are exact in binary so every
// product below is exact too:
//
//	A -0.75- B -0.5- C -0.5- D -0.5- E
//	 \______0.25_____/
func handGraph() (*reference, map[string]core.GlobalKey) {
	k := map[string]core.GlobalKey{}
	for _, n := range []string{"A", "B", "C", "D", "E"} {
		k[n] = core.NewGlobalKey("db", "c", n)
	}
	edges := []core.PRelation{
		core.NewMatching(k["A"], k["B"], 0.75),
		core.NewMatching(k["B"], k["C"], 0.5),
		core.NewMatching(k["A"], k["C"], 0.25),
		core.NewMatching(k["C"], k["D"], 0.5),
		core.NewMatching(k["D"], k["E"], 0.5),
	}
	return newReference(edges), k
}

func TestReferenceByHand(t *testing.T) {
	ref, k := handGraph()
	type hit = refHit
	cases := []struct {
		name    string
		origins []string
		level   int
		gone    string
		want    []hit
	}{
		// Level 0 is one hop: the direct neighbours.
		{"one hop", []string{"A"}, 0, "", []hit{
			{k["B"], 0.75, 1}, {k["C"], 0.25, 1},
		}},
		// Two hops: C improves to 0.75*0.5 through B but stays at distance
		// 1; D is reached through the direct edge to C only.
		{"two hops", []string{"A"}, 1, "", []hit{
			{k["B"], 0.75, 1}, {k["C"], 0.375, 1}, {k["D"], 0.125, 2},
		}},
		// Three hops: D improves to 0.75*0.5*0.5 through B and C; E comes
		// in at 0.25*0.5*0.5 over the three-edge path through the direct
		// edge; the four-edge path through B is out of range.
		{"three hops", []string{"A"}, 2, "", []hit{
			{k["B"], 0.75, 1}, {k["C"], 0.375, 1}, {k["D"], 0.1875, 2}, {k["E"], 0.0625, 3},
		}},
		// Two origins: origins drop out, each key keeps its best origin,
		// and the tie between C and E at 0.5 is broken by key.
		{"two origins", []string{"A", "D"}, 0, "", []hit{
			{k["B"], 0.75, 1}, {k["C"], 0.5, 1}, {k["E"], 0.5, 1},
		}},
		// A deleted key leaves the answer; paths through it still count.
		{"deleted", []string{"A"}, 1, "C", []hit{
			{k["B"], 0.75, 1}, {k["D"], 0.125, 2},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var origins []core.GlobalKey
			for _, o := range c.origins {
				origins = append(origins, k[o])
			}
			gone := func(gk core.GlobalKey) bool { return c.gone != "" && gk == k[c.gone] }
			got := ref.augment(origins, c.level, gone)
			if len(got) != len(c.want) {
				t.Fatalf("got %v, want %v", got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("hit %d = %v, want %v", i, got[i], c.want[i])
				}
			}
		})
	}
}

func TestCompareAugmented(t *testing.T) {
	ref, k := handGraph()
	want := ref.augment([]core.GlobalKey{k["A"]}, 1, nil)
	answer := func(hits ...refHit) []augment.AugmentedObject {
		var out []augment.AugmentedObject
		for _, h := range hits {
			out = append(out, augment.AugmentedObject{Object: core.NewObject(h.Key, nil), Prob: h.Prob, Dist: h.Dist})
		}
		return out
	}
	if err := compareAugmented(want, answer(want...)); err != nil {
		t.Fatalf("the reference's own answer: %v", err)
	}
	wrongProb := append([]refHit(nil), want...)
	wrongProb[1].Prob = 0.25
	swapped := []refHit{want[1], want[0], want[2]}
	wrongDist := append([]refHit(nil), want...)
	wrongDist[2].Dist = 3
	for name, hits := range map[string][]refHit{
		"probability": wrongProb, "order": swapped, "distance": wrongDist, "missing": want[:2],
	} {
		if err := compareAugmented(want, answer(hits...)); err == nil {
			t.Errorf("a wrong %s passed", name)
		}
	}
	ranked := answer(want...)
	if err := checkOrdered(answer(swapped...), answer(swapped...), nil); err == nil {
		t.Error("an answer out of probability order passed")
	}
	if err := checkOrdered(ranked, ranked[:1], nil); err == nil {
		t.Error("a truncated ranking passed")
	}
	if err := checkOrdered(ranked, ranked, func(gk core.GlobalKey) bool { return gk == k["D"] }); err == nil {
		t.Error("an answer holding a deleted key passed")
	}
}

func TestCheckWindow(t *testing.T) {
	obj := func(key, seq string) core.Object {
		return core.NewObject(core.NewGlobalKey("catalogue", "albums", key), map[string]string{"seq": seq})
	}
	full := []core.Object{obj("d3", "3"), obj("d4", "4"), obj("d5", "5")}
	if err := checkWindow("catalogue", 3, 6, full, nil); err != nil {
		t.Fatal(err)
	}
	if err := checkWindow("catalogue", 3, 6, full[:2], map[int]bool{5: true}); err != nil {
		t.Fatalf("a window without its deleted object: %v", err)
	}
	for name, c := range map[string]struct {
		got     []core.Object
		deleted map[int]bool
	}{
		"missing":     {full[:2], nil},
		"deleted":     {full, map[int]bool{5: true}},
		"outside":     {append(full[:2:2], obj("d6", "6")), nil},
		"duplicate":   {append(full[:2:2], obj("x4", "4")), nil},
		"other store": {[]core.Object{core.NewObject(core.NewGlobalKey("transactions", "inventory", "a3"), map[string]string{"seq": "3"})}, map[int]bool{4: true, 5: true}},
	} {
		err := checkWindow("catalogue", 3, 6, c.got, c.deleted)
		if err == nil || !strings.Contains(err.Error(), "catalogue") {
			t.Errorf("%s: got %v, want a window error", name, err)
		}
	}
}
