package lmm

import (
	"fmt"
)

// BlockSize is the paged-KV block granularity in tokens (vLLM's
// default).
const BlockSize = 16

// KVCache is a paged (block-based) KV-cache allocator in the style of
// vLLM/LightLLM, which VaLoRA builds on (§5). Sequences own fixed-size
// token blocks; blocks freed on completion return to the free pool, so
// fragmentation never strands memory. Nothing reads which block holds
// which tokens, so the cache counts blocks rather than naming them.
//
// Sequences are named by the SeqHandle Allocate returns, an index into
// a dense slice of sequence records, so the per-token Extend and the
// per-iteration Tokens reads are slice loads rather than map lookups.
type KVCache struct {
	totalBlocks int
	free        int // unallocated blocks
	seqs        []seqAlloc
	bytesPerBlk int64
	// spare holds the indices of released sequence records for
	// Allocate to reuse; len(seqs) never exceeds the peak number of
	// live sequences.
	spare []int32
}

type seqAlloc struct {
	blocks int // blocks owned
	tokens int
	shared int // tokens backed by prefix-cache blocks (not owned)
	// gen is the record's generation, bumped on every Release: only the
	// handle carrying the current generation names the live sequence.
	gen uint32
}

// SeqHandle names one live sequence of a KVCache. The zero handle names
// none. A handle packs its record's index with the record's
// generation, so a handle kept past its Release is stale: it never
// aliases the sequence that reuses the record.
type SeqHandle uint64

func makeHandle(i int, gen uint32) SeqHandle { return SeqHandle(gen)<<32 | SeqHandle(uint32(i+1)) }

// NewKVCache builds an allocator over budgetBytes of KV memory for a
// model.
func NewKVCache(cfg Config, budgetBytes int64) *KVCache {
	perBlock := cfg.KVBytesPerToken() * BlockSize
	n := int(budgetBytes / perBlock)
	if n < 1 {
		n = 1
	}
	return &KVCache{
		totalBlocks: n,
		free:        n,
		bytesPerBlk: perBlock,
	}
}

// TotalBlocks reports the cache capacity in blocks.
func (k *KVCache) TotalBlocks() int { return k.totalBlocks }

// FreeBlocks reports the number of unallocated blocks.
func (k *KVCache) FreeBlocks() int { return k.free }

// CanFit reports whether tokens more tokens can be allocated right
// now.
func (k *KVCache) CanFit(tokens int) bool {
	return (tokens+BlockSize-1)/BlockSize <= k.free
}

// seq resolves a handle to its live record, or nil for the zero handle
// and for stale handles.
//
//valora:hotpath
func (k *KVCache) seq(h SeqHandle) *seqAlloc {
	i := int(uint32(h)) - 1
	if i < 0 || i >= len(k.seqs) {
		return nil
	}
	a := &k.seqs[i]
	if a.gen != uint32(h>>32) {
		return nil
	}
	return a
}

// Allocate reserves blocks for a new sequence with the given prompt
// length and returns its handle. sharedTokens (from the prefix cache)
// occupy no new blocks.
func (k *KVCache) Allocate(tokens, sharedTokens int) (SeqHandle, error) {
	owned := tokens - sharedTokens
	if owned < 0 {
		owned = 0
	}
	need := (owned + BlockSize - 1) / BlockSize
	if need > k.free {
		return 0, fmt.Errorf("lmm: KV cache exhausted (%d blocks needed, %d free)", need, k.free)
	}
	var i int
	if n := len(k.spare); n > 0 {
		i = int(k.spare[n-1])
		k.spare = k.spare[:n-1]
	} else {
		i = len(k.seqs)
		k.seqs = append(k.seqs, seqAlloc{})
	}
	a := &k.seqs[i]
	a.blocks, a.tokens, a.shared = need, tokens, sharedTokens
	k.free -= need
	return makeHandle(i, a.gen), nil
}

// Extend appends one generated token to a sequence, taking a new block
// when the current one is full.
//
//valora:hotpath
func (k *KVCache) Extend(h SeqHandle) error {
	a := k.seq(h)
	if a == nil {
		//valora:allow hotpath -- cold path: only a zero or stale handle reaches it; the serving loop extends live sequences only
		return fmt.Errorf("lmm: KV handle %#x names no live sequence", uint64(h))
	}
	if (a.tokens-a.shared)%BlockSize == 0 {
		if k.free == 0 {
			//valora:allow hotpath -- cold path: the serving loop reserves one free block per batched sequence before extending
			return fmt.Errorf("lmm: KV cache exhausted extending sequence %#x", uint64(h))
		}
		a.blocks++
		k.free--
	}
	a.tokens++
	return nil
}

// Tokens reports the sequence's current context length (prompt +
// generated), 0 for the zero or a stale handle.
//
//valora:hotpath
func (k *KVCache) Tokens(h SeqHandle) int {
	if a := k.seq(h); a != nil {
		return a.tokens
	}
	return 0
}

// Shared reports how many of the sequence's prompt tokens the prefix
// cache served (the sharedTokens it was allocated with), 0 for the
// zero or a stale handle.
//
//valora:hotpath
func (k *KVCache) Shared(h SeqHandle) int {
	if a := k.seq(h); a != nil {
		return a.shared
	}
	return 0
}

// Release frees all blocks owned by a sequence and keeps its record
// for reuse. Releasing the zero or a stale handle is a no-op.
//
//valora:hotpath
func (k *KVCache) Release(h SeqHandle) {
	a := k.seq(h)
	if a == nil {
		return
	}
	k.free += a.blocks
	a.blocks, a.tokens, a.shared = 0, 0, 0
	a.gen++
	k.spare = append(k.spare, int32(uint32(h)-1))
}

// Usage reports the fraction of blocks in use.
func (k *KVCache) Usage() float64 {
	return 1 - float64(k.free)/float64(k.totalBlocks)
}
