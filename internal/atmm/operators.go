package atmm

import (
	"sync"
	"time"

	"valora/internal/simgpu"
	"valora/internal/tiling"
)

// segScratch holds the per-call segment slices of one LayerTime
// invocation. Operators are memoized and shared across instances (and,
// under the sharded engine, across goroutines), so the scratch lives
// in a pool rather than on the operator: LayerTime runs once per
// scheduling iteration and two heap slices per call was a measurable
// slice-growth and GC tax on million-request stress runs.
type segScratch struct {
	shrink, expand, combined []simgpu.Segment
}

var segPool = sync.Pool{New: func() any { return new(segScratch) }}

// segmentsFor builds the fused-kernel segments of one layer's LoRA
// computation into sc: per adapter group, a shrink GEMM
// (tokens×dim)·(dim×r) and an expand GEMM (tokens×r)·(r×dim),
// replicated across the layer's LoRA-carrying projections. The
// returned slices alias sc and are valid until sc is pooled again;
// the GPU cost model does not retain them.
func segmentsFor(b Batch, sc *segScratch) (shrink, expand []simgpu.Segment) {
	shrink, expand = sc.shrink[:0], sc.expand[:0]
	for _, g := range b.Groups {
		shrink = append(shrink, simgpu.Segment{
			Shape: simgpu.Shape{M: g.Tokens, K: b.Dim, N: g.Rank},
			Count: b.Projections,
		})
		expand = append(expand, simgpu.Segment{
			Shape: simgpu.Shape{M: g.Tokens, K: g.Rank, N: b.Dim},
			Count: b.Projections,
		})
	}
	sc.shrink, sc.expand = shrink, expand
	return shrink, expand
}

// ATMM is the adaptive-tiling operator: at runtime it buckets the
// batch's aggregate shape, looks the optimal tiling configuration up
// in the offline-built hash table (one lookup for the shrink kernel,
// one for the expand kernel), and executes the fused kernels with
// double-buffered pipelining. The kernels of the profiled grid are
// compiled when the operator is built (see plan), so the runtime
// lookup is a slice index. An ATMM is immutable after construction
// and safe to share across instances and goroutines.
type ATMM struct {
	gpu   *simgpu.GPU
	table *tiling.Table
	plan  plan
}

// NewATMM builds the operator, running the offline tiling search for
// the given model dimension and max token count and compiling the
// searched grid.
func NewATMM(g *simgpu.GPU, dim, maxTokens int) (*ATMM, error) {
	spec := tiling.DefaultSearchSpec(dim, maxTokens)
	table, _, err := tiling.Search(g, spec)
	if err != nil {
		return nil, err
	}
	a := &ATMM{gpu: g, table: table}
	a.plan = a.compile(dim, spec.Ranks, tiling.BucketIndex(maxTokens)+1)
	return a, nil
}

// NewStaticATMM builds the static-tiling ablation arm: the same fused
// execution path but with an empty hash table, so every shape falls
// back to the one default configuration (no adaptivity).
func NewStaticATMM(g *simgpu.GPU) *ATMM {
	return &ATMM{gpu: g, table: tiling.NewTable()}
}

func (a *ATMM) Name() string { return "ATMM" }

// Directions of the LoRA data path, indexing plan rows.
const (
	shrinkDir = iota // (M×dim)·(dim×rank)
	expandDir        // (M×rank)·(rank×dim)
)

// plan is ATMM's dense shape index: for each direction, profiled rank
// and M bucket of the searched grid, the kernel compiled from the
// table's configuration for that shape. Each cell holds exactly what
// Table.Lookup and GPU.Compile would return for the shapes it covers,
// so the index only removes per-call work. A shape off the grid (an
// unprofiled rank, M above the last bucket, another hidden dim) is not
// in the plan and takes the lookup path.
//
// A cell also holds its kernel's segment terms for every profiled
// rank: the K- and N-dependent cost terms of a LoRA group of that rank
// and its terms at gridM = 1, which covers every group of at most BM
// tokens. LayerTime costs an on-grid batch from them without building
// segments.
type plan struct {
	dim     int
	buckets int   // M buckets 16<<0 .. 16<<(buckets-1)
	rows    int   // profiled ranks
	rankRow []int // rank → row; -1 for an unprofiled rank
	cells   []planCell
}

type planCell struct {
	k  simgpu.Kernel
	ok bool // compiled; false leaves the shape to the lookup path
	// terms[row] are k's terms for the segments of a group of the
	// row's rank: (dim, rank) for a shrink cell, (rank, dim) for an
	// expand cell. nil when the cell is not compiled, or when its rank
	// equals the hidden dim and its shapes' direction is ambiguous.
	terms []simgpu.SegmentTerms
}

// compile builds the plan for hidden dim over the given ranks and
// bucket count.
func (a *ATMM) compile(dim int, ranks []int, buckets int) plan {
	p := plan{dim: dim, buckets: buckets, rows: len(ranks)}
	for row, r := range ranks {
		for len(p.rankRow) <= r {
			p.rankRow = append(p.rankRow, -1)
		}
		p.rankRow[r] = row
	}
	p.cells = make([]planCell, 2*p.rows*buckets)
	for dir := shrinkDir; dir <= expandDir; dir++ {
		for row, r := range ranks {
			for b := 0; b < buckets; b++ {
				s := simgpu.Shape{M: 16 << b, K: dim, N: r}
				if dir == expandDir {
					s.K, s.N = r, dim
				}
				cfg, _ := a.table.Lookup(s, simgpu.TensorCore)
				k, err := a.gpu.Compile(cfg, simgpu.TensorCore)
				c := p.at(dir, row, b)
				*c = planCell{k: k, ok: err == nil}
				if !c.ok || r == dim {
					continue
				}
				c.terms = make([]simgpu.SegmentTerms, len(ranks))
				for sr, segRank := range ranks {
					if dir == shrinkDir {
						c.terms[sr] = c.k.Terms(dim, segRank)
					} else {
						c.terms[sr] = c.k.Terms(segRank, dim)
					}
				}
			}
		}
	}
	return p
}

// at returns the cell of a direction, rank row and M bucket.
func (p *plan) at(dir, row, bucket int) *planCell {
	return &p.cells[(dir*p.rows+row)*p.buckets+bucket]
}

// kernel returns the compiled kernel for a shape: from the plan when
// the shape is on its grid (a shrink shape has K == dim and its rank
// as N, an expand shape the reverse; the switcher's ΔW shape
// dim×rank×dim is an expand shape with M = dim), else through
// Table.Lookup and a per-call compile.
func (a *ATMM) kernel(s simgpu.Shape) (simgpu.Kernel, error) {
	p := &a.plan
	dir, rank := shrinkDir, s.N
	if s.K != p.dim {
		dir, rank = expandDir, s.K
	}
	if (s.K == p.dim || s.N == p.dim) && rank >= 0 && rank < len(p.rankRow) {
		if row, b := p.rankRow[rank], tiling.BucketIndex(s.M); row >= 0 && b < p.buckets {
			if c := p.at(dir, row, b); c.ok {
				return c.k, nil
			}
		}
	}
	cfg, _ := a.table.Lookup(s, simgpu.TensorCore)
	return a.gpu.Compile(cfg, simgpu.TensorCore)
}

// LayerTime costs the shrink and expand fused kernels with per-shape
// adaptive configurations: from the plan's segment terms when the
// batch is on the grid, else by building its segments.
//
//valora:hotpath
func (a *ATMM) LayerTime(b Batch) (time.Duration, error) {
	if d, ok := a.planLayerTime(b); ok {
		return d, nil
	}
	if err := b.Validate(); err != nil {
		return 0, err
	}
	sc := segPool.Get().(*segScratch)
	defer segPool.Put(sc)
	shrink, expand := segmentsFor(b, sc)
	total, rank := b.TotalTokens(), b.MaxRank()
	ks, err := a.kernel(simgpu.Shape{M: total, K: b.Dim, N: rank})
	if err != nil {
		return 0, err
	}
	ke, err := a.kernel(simgpu.Shape{M: total, K: rank, N: b.Dim})
	if err != nil {
		return 0, err
	}
	ts, err := ks.BatchTime(shrink)
	if err != nil {
		return 0, err
	}
	te, err := ke.BatchTime(expand)
	if err != nil {
		return 0, err
	}
	// The expand output is accumulated onto the base-model activations
	// in-kernel (epilogue fusion), so no separate add kernel is paid.
	return ts + te + gatherCost(b), nil
}

// planLayerTime is LayerTime for a valid, non-empty batch on the
// plan's grid: the plan's hidden dim, profiled ranks only and a total
// token count within the last bucket. It walks the groups once to pick
// the cells, as kernel would, and once to sum their segment terms. ok
// is false for any other batch, invalid ones included.
//
//valora:hotpath
func (a *ATMM) planLayerTime(b Batch) (d time.Duration, ok bool) {
	p := &a.plan
	if b.Dim != p.dim || b.Projections <= 0 || len(b.Groups) == 0 {
		return 0, false
	}
	total, rank := 0, 0
	for _, g := range b.Groups {
		if g.Tokens <= 0 || g.Rank <= 0 || g.Rank >= len(p.rankRow) || p.rankRow[g.Rank] < 0 {
			return 0, false
		}
		total += g.Tokens
		if g.Rank > rank {
			rank = g.Rank
		}
	}
	bucket := tiling.BucketIndex(total)
	if bucket >= p.buckets {
		return 0, false
	}
	row := p.rankRow[rank]
	cs, ce := p.at(shrinkDir, row, bucket), p.at(expandDir, row, bucket)
	if cs.terms == nil || ce.terms == nil {
		return 0, false
	}
	var ss, se simgpu.CostSums
	for _, g := range b.Groups {
		r := p.rankRow[g.Rank]
		cs.k.AddSegment(&ss, &cs.terms[r], g.Tokens, b.Projections)
		ce.k.AddSegment(&se, &ce.terms[r], g.Tokens, b.Projections)
	}
	return cs.k.SumsTime(&ss) + ce.k.SumsTime(&se) + gatherCost(b), true
}

// BatchTime exposes ATMM for an arbitrary fused segment batch (the
// switcher's all-layer ΔW computation uses this), with the kernel
// chosen for the lookup shape.
func (a *ATMM) BatchTime(segs []simgpu.Segment, lookup simgpu.Shape) (time.Duration, error) {
	k, err := a.kernel(lookup)
	if err != nil {
		return 0, err
	}
	return k.BatchTime(segs)
}

// layerContext is the per-layer CUDA context cost baseline operators
// pay when interleaving LoRA kernels with the base-model stream
// (§3.2: "each layer requires additional CUDA kernel context
// operations at each layer"). VaLoRA's ATMM binds its pre-compiled
// kernels into the serving loop (§5) and avoids this stream-switching
// tax.
const layerContext = 55 * time.Microsecond

// perSegmentGather is the per-adapter-segment scheduling cost of
// grouped (gather-based) kernels: each adapter group needs its own
// block cluster, pointer indirection and grid setup per projection and
// per shrink/expand kernel. It is what keeps merged inference strictly
// cheaper than even the best unmerged operator (§4.4.3 principle 1).
const perSegmentGather = 800 * time.Nanosecond

// gatherCost reports the grouped-kernel scheduling cost of a batch.
func gatherCost(b Batch) time.Duration {
	return time.Duration(len(b.Groups)*b.Projections*2) * perSegmentGather
}

// Punica models Punica's SGMV kernel: CUTLASS tensor-core tiles with
// the static configuration reported in the paper's Table 1,
// (16,64,64 | 16,16,64), fused across adapters in one launch per
// shrink/expand.
type Punica struct {
	GPU *simgpu.GPU
}

func (p *Punica) Name() string { return "Punica" }

// punicaConfig is the static tiling Table 1 attributes to Punica.
func punicaConfig() simgpu.TileConfig {
	return simgpu.TileConfig{BM: 16, BK: 64, BN: 64, WM: 16, WK: 16, WN: 64, SplitK: 1, Stages: 2}
}

func (p *Punica) LayerTime(b Batch) (time.Duration, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	sc := segPool.Get().(*segScratch)
	defer segPool.Put(sc)
	shrink, expand := segmentsFor(b, sc)
	cfg := punicaConfig()
	ts, err := p.GPU.BatchGEMMTime(shrink, cfg, simgpu.TensorCore)
	if err != nil {
		return 0, err
	}
	te, err := p.GPU.BatchGEMMTime(expand, cfg, simgpu.TensorCore)
	if err != nil {
		return 0, err
	}
	// Punica adds the LoRA delta onto the base output with a separate
	// elementwise kernel.
	add := p.GPU.MemTouch(int64(b.TotalTokens()) * int64(b.Dim) * int64(b.Projections) * 2)
	return ts + te + add + layerContext + gatherCost(b), nil
}

// SLoRA models S-LoRA's custom kernel: fine-grained tiles computed on
// CUDA cores, gathering each request's tokens to avoid padding. Small
// tiles keep padding negligible and decode latency low, at the price
// of the 4× lower CUDA-core peak on large prefill batches.
type SLoRA struct {
	GPU *simgpu.GPU
}

func (s *SLoRA) Name() string { return "S-LoRA" }

func sloraConfig() simgpu.TileConfig {
	return simgpu.TileConfig{BM: 32, BK: 32, BN: 32, WM: 32, WK: 32, WN: 32, SplitK: 4, Stages: 2}
}

func (s *SLoRA) LayerTime(b Batch) (time.Duration, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	// S-LoRA's kernel fuses shrink, expand and the output addition
	// into a single launch per layer, which is what keeps its decode
	// latency near-optimal despite running on CUDA cores.
	sc := segPool.Get().(*segScratch)
	defer segPool.Put(sc)
	shrink, expand := segmentsFor(b, sc)
	combined := append(append(sc.combined[:0], shrink...), expand...)
	sc.combined = combined
	t, err := s.GPU.BatchGEMMTime(combined, sloraConfig(), simgpu.CUDACore)
	if err != nil {
		return 0, err
	}
	return t + layerContext + gatherCost(b), nil
}

// DLoRAEinsum models dLoRA's unmerged path: torch.einsum lowers to a
// padded batched GEMM — every adapter group is padded to the batch's
// maximum token count and maximum rank — plus per-call dispatcher
// overhead ("CUDA kernel context operations") and a separate addition
// kernel, per projection.
type DLoRAEinsum struct {
	GPU *simgpu.GPU
}

func (d *DLoRAEinsum) Name() string { return "dLoRA" }

// einsumDispatch is the per-einsum-call framework overhead on top of
// the raw kernel (tensor reshape/stride bookkeeping and extra context
// switches the paper calls out in §3.2).
const einsumDispatch = 15 * time.Microsecond

func dlorAConfig() simgpu.TileConfig {
	// cuBLAS-style generic tile for batched GEMM.
	return simgpu.TileConfig{BM: 128, BK: 32, BN: 64, WM: 64, WK: 32, WN: 32, SplitK: 1, Stages: 2}
}

func (d *DLoRAEinsum) LayerTime(b Batch) (time.Duration, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	maxM := b.MaxTokens()
	maxR := b.MaxRank()
	n := len(b.Groups)
	cfg := dlorAConfig()

	// One padded batched GEMM per projection per direction; einsum
	// issues them as separate calls (no cross-projection fusion).
	shrinkSeg := []simgpu.Segment{{Shape: simgpu.Shape{M: maxM, K: b.Dim, N: maxR}, Count: n}}
	expandSeg := []simgpu.Segment{{Shape: simgpu.Shape{M: maxM, K: maxR, N: b.Dim}, Count: n}}

	var total time.Duration
	for p := 0; p < b.Projections; p++ {
		ts, err := d.GPU.BatchGEMMTime(shrinkSeg, cfg, simgpu.TensorCore)
		if err != nil {
			return 0, err
		}
		te, err := d.GPU.BatchGEMMTime(expandSeg, cfg, simgpu.TensorCore)
		if err != nil {
			return 0, err
		}
		add := d.GPU.MemTouch(int64(maxM) * int64(n) * int64(b.Dim) * 2)
		total += ts + te + add + 2*einsumDispatch
	}
	return total + layerContext, nil
}

// NewBaselines returns the three baseline operators on a GPU.
func NewBaselines(g *simgpu.GPU) (*Punica, *SLoRA, *DLoRAEinsum) {
	return &Punica{GPU: g}, &SLoRA{GPU: g}, &DLoRAEinsum{GPU: g}
}
