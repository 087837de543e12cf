package simgpu

import "time"

// Segment is one independent GEMM inside a fused (grouped) kernel
// launch, e.g. the tokens of one LoRA adapter inside a heterogeneous
// batch. Count replicates the segment (identical shapes are common:
// one segment per attention projection).
type Segment struct {
	Shape Shape
	Count int
}

// BatchCost describes the cost of one fused kernel that executes many
// independent GEMM segments in a single launch — the execution model
// of Punica's SGMV, S-LoRA's batched kernel, and ATMM. The segments
// run concurrently on the block grid; the launch pays one kernel
// overhead no matter how many segments it covers.
type BatchCost struct {
	Config   TileConfig
	Class    CoreClass
	Segments int
	Blocks   int
	Waves    int
	SMUtil   float64
	Total    time.Duration
}

// BatchGEMMCost costs one fused kernel over segs: it compiles cfg and
// runs the segments through the kernel path (see Kernel.BatchCost).
func (g *GPU) BatchGEMMCost(segs []Segment, cfg TileConfig, class CoreClass) (BatchCost, error) {
	k, err := g.Compile(cfg, class)
	if err != nil {
		return BatchCost{}, err
	}
	return k.BatchCost(segs)
}

// BatchGEMMTime is BatchGEMMCost reduced to total latency.
func (g *GPU) BatchGEMMTime(segs []Segment, cfg TileConfig, class CoreClass) (time.Duration, error) {
	k, err := g.Compile(cfg, class)
	if err != nil {
		return 0, err
	}
	return k.BatchTime(segs)
}
