package lmm

import (
	"fmt"
)

// BlockSize is the paged-KV block granularity in tokens (vLLM's
// default).
const BlockSize = 16

// KVCache is a paged (block-based) KV-cache allocator in the style of
// vLLM/LightLLM, which VaLoRA builds on (§5). Sequences own lists of
// fixed-size token blocks; blocks freed on completion return to a free
// list, so fragmentation never strands memory.
type KVCache struct {
	totalBlocks int
	free        []int
	seqs        map[int64]*seqAlloc
	bytesPerBlk int64
	// spare holds released sequence records (blocks emptied, capacity
	// kept) for Allocate to reuse; its length never exceeds the peak
	// number of live sequences.
	spare []*seqAlloc
}

type seqAlloc struct {
	blocks []int
	tokens int
	shared int // tokens backed by prefix-cache blocks (not owned)
}

// NewKVCache builds an allocator over budgetBytes of KV memory for a
// model.
func NewKVCache(cfg Config, budgetBytes int64) *KVCache {
	perBlock := cfg.KVBytesPerToken() * BlockSize
	n := int(budgetBytes / perBlock)
	if n < 1 {
		n = 1
	}
	free := make([]int, n)
	for i := range free {
		free[i] = i
	}
	return &KVCache{
		totalBlocks: n,
		free:        free,
		seqs:        make(map[int64]*seqAlloc),
		bytesPerBlk: perBlock,
	}
}

// TotalBlocks reports the cache capacity in blocks.
func (k *KVCache) TotalBlocks() int { return k.totalBlocks }

// FreeBlocks reports the number of unallocated blocks.
func (k *KVCache) FreeBlocks() int { return len(k.free) }

// CanFit reports whether tokens more tokens can be allocated right
// now.
func (k *KVCache) CanFit(tokens int) bool {
	return (tokens+BlockSize-1)/BlockSize <= len(k.free)
}

// Allocate reserves blocks for a new sequence with the given prompt
// length. sharedTokens (from the prefix cache) occupy no new blocks.
func (k *KVCache) Allocate(seqID int64, tokens, sharedTokens int) error {
	if _, ok := k.seqs[seqID]; ok {
		return fmt.Errorf("lmm: sequence %d already allocated", seqID)
	}
	owned := tokens - sharedTokens
	if owned < 0 {
		owned = 0
	}
	need := (owned + BlockSize - 1) / BlockSize
	if need > len(k.free) {
		return fmt.Errorf("lmm: KV cache exhausted (%d blocks needed, %d free)", need, len(k.free))
	}
	var alloc *seqAlloc
	if n := len(k.spare); n > 0 {
		alloc = k.spare[n-1]
		k.spare = k.spare[:n-1]
	} else {
		alloc = &seqAlloc{}
	}
	alloc.tokens, alloc.shared = tokens, sharedTokens
	alloc.blocks = append(alloc.blocks, k.free[len(k.free)-need:]...)
	k.free = k.free[:len(k.free)-need]
	k.seqs[seqID] = alloc
	return nil
}

// Extend appends one generated token to a sequence, taking a new block
// when the current one is full.
func (k *KVCache) Extend(seqID int64) error {
	alloc, ok := k.seqs[seqID]
	if !ok {
		return fmt.Errorf("lmm: sequence %d not allocated", seqID)
	}
	owned := alloc.tokens - alloc.shared
	if owned%BlockSize == 0 {
		if len(k.free) == 0 {
			return fmt.Errorf("lmm: KV cache exhausted extending sequence %d", seqID)
		}
		alloc.blocks = append(alloc.blocks, k.free[len(k.free)-1])
		k.free = k.free[:len(k.free)-1]
	}
	alloc.tokens++
	return nil
}

// Tokens reports the sequence's current context length (prompt +
// generated).
func (k *KVCache) Tokens(seqID int64) int {
	if a, ok := k.seqs[seqID]; ok {
		return a.tokens
	}
	return 0
}

// Release frees all blocks owned by a sequence and keeps its record
// for reuse.
func (k *KVCache) Release(seqID int64) {
	alloc, ok := k.seqs[seqID]
	if !ok {
		return
	}
	k.free = append(k.free, alloc.blocks...)
	alloc.blocks = alloc.blocks[:0]
	k.spare = append(k.spare, alloc)
	delete(k.seqs, seqID)
}

// Usage reports the fraction of blocks in use.
func (k *KVCache) Usage() float64 {
	return 1 - float64(len(k.free))/float64(k.totalBlocks)
}
