package deps

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"clsacim/internal/frontend"
	"clsacim/internal/im2col"
	"clsacim/internal/mapping"
	"clsacim/internal/models"
	"clsacim/internal/nn"
	"clsacim/internal/sets"
)

// TestIncrementalMatchesRebuild is the oracle of the scored solver's
// memoized Stage I/II: along randomized sequences of the search's move
// kinds (increment, decrement, and transfer of one duplicate), the plan
// from sets.Memo must equal sets.Determine field for field, and the CSR
// from a Builder fed those plans must be CSR.Equal to a full deps.Build,
// after every move — both the transient graph a scoring loop reads and,
// every few moves, an owned one.
func TestIncrementalMatchesRebuild(t *testing.T) {
	type workload struct {
		name  string
		g     func() (*nn.Graph, error)
		moves int
	}
	builtin := func(id models.ID, size int) func() (*nn.Graph, error) {
		return func() (*nn.Graph, error) { return models.Build(id, models.Options{InputSize: size}) }
	}
	random := func(seed int64) func() (*nn.Graph, error) {
		return func() (*nn.Graph, error) {
			return models.RandomCNN(models.RandomOptions{Seed: seed, MaxBaseLayers: 8, MaxInput: 32})
		}
	}
	ws := []workload{
		{"tinyyolov4", builtin(models.TinyYOLOv4, 128), 48},
		{"resnet50", builtin(models.ResNet50, 64), 32},
		{"vgg16", builtin(models.VGG16, 64), 32},
	}
	seeds := 8
	if testing.Short() {
		ws = ws[:1]
		ws[0].moves = 8
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ws = append(ws, workload{fmt.Sprintf("random%d", seed), random(seed), 40})
	}
	for _, w := range ws {
		for _, target := range []int{26, 8, sets.FineGranularity} {
			name := fmt.Sprintf("%s/%d", w.name, target)
			if target == sets.FineGranularity {
				name = w.name + "/fine"
			}
			t.Run(name, func(t *testing.T) {
				g, err := w.g()
				if err != nil {
					t.Fatal(err)
				}
				incrementalWalk(t, g, target, w.moves, int64(len(w.name)+target))
			})
		}
	}
}

func incrementalWalk(t *testing.T, g *nn.Graph, target, moves int, seed int64) {
	if _, err := frontend.Canonicalize(g, frontend.Options{}); err != nil {
		t.Fatal(err)
	}
	plan, err := mapping.Analyze(g, im2col.PEDims{Rows: 64, Cols: 64})
	if err != nil {
		t.Fatal(err)
	}
	f := plan.MinPEs + plan.MinPEs/2 + 4
	d := make([]int, len(plan.Layers))
	used := 0
	for i := range d {
		d[i] = 1
		used += plan.Layers[i].Cost
	}
	memo := sets.NewMemo(g, plan, sets.Options{TargetSets: target})
	var b *Builder
	rng := rand.New(rand.NewSource(seed))
	layers := 0
	for step := 0; step <= moves; step++ {
		if step > 0 && !move(rng, plan, f, d, &used) {
			t.Fatalf("step %d: no feasible move from %v", step, d)
		}
		sol, err := mapping.NewSolution(plan, d)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mapping.Apply(g, plan, sol, f)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sets.Determine(g, m, sets.Options{TargetSets: target})
		if err != nil {
			t.Fatal(err)
		}
		got, err := memo.Determine(m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (d=%v): memoized Stage I plan differs from sets.Determine", step, d)
		}
		full, err := Build(g, want)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			if b, err = NewBuilder(got); err != nil {
				t.Fatal(err)
			}
		}
		build := b.BuildTransient
		if step%4 == 3 {
			build = b.Build
		}
		inc, err := build(got)
		if err != nil {
			t.Fatal(err)
		}
		if !inc.CSR.Equal(full.CSR) {
			t.Fatalf("step %d (d=%v): incremental CSR differs from a full rebuild", step, d)
		}
		layers += len(plan.Layers)
	}
	emitted := 0
	for _, m := range b.memo {
		emitted += len(m)
	}
	if moves > 0 && emitted >= layers {
		t.Errorf("builder re-emitted all %d layer streams: the memo never hit", layers)
	}
}

// move applies one feasible search move to d in place (the move kinds
// of mapping.SolveSearch), keeping 1 <= d_i <= MaxDup_i and
// sum(c_i*d_i) <= f.
func move(rng *rand.Rand, plan *mapping.Plan, f int, d []int, used *int) bool {
	for attempt := 0; attempt < 256; attempt++ {
		i := rng.Intn(len(d))
		ci := plan.Layers[i].Cost
		switch rng.Intn(3) {
		case 0:
			if d[i] < mapping.MaxDup(plan.Layers[i]) && *used+ci <= f {
				d[i]++
				*used += ci
				return true
			}
		case 1:
			if d[i] > 1 {
				d[i]--
				*used -= ci
				return true
			}
		default:
			j := rng.Intn(len(d))
			cj := plan.Layers[j].Cost
			if i != j && d[i] > 1 && d[j] < mapping.MaxDup(plan.Layers[j]) && *used-ci+cj <= f {
				d[i]--
				d[j]++
				*used += cj - ci
				return true
			}
		}
	}
	return false
}
