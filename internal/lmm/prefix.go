package lmm

// PrefixCache reuses the KV cache of previously encoded images across
// requests (§5 "Prefix caching", after CacheBlend/SGLang): multi-round
// visual question answering over the same image skips both the visual
// encoder and the image tokens' prefill on later rounds.
//
// Entries are keyed by an opaque nonzero image identifier and evicted
// LRU when the configured capacity is exceeded.
type PrefixCache struct {
	capacity int
	tokens   map[uint32]int
	order    []uint32 // LRU order, least recent first
	hits     int
	misses   int
}

// NewPrefixCache creates a cache holding at most capacity images.
// capacity <= 0 disables caching (every lookup misses), which is the
// ablation arm of Fig. 24.
func NewPrefixCache(capacity int) *PrefixCache {
	return &PrefixCache{capacity: capacity, tokens: make(map[uint32]int)}
}

// Lookup consults the cache for an image. On a hit it returns the
// number of KV tokens already resident (the image's visual tokens); on
// a miss it records the image for future hits and returns 0. Image 0
// is unique and never cached.
func (p *PrefixCache) Lookup(imageID uint32, visualTokens int) int {
	if p.capacity <= 0 || imageID == 0 {
		p.misses++
		return 0
	}
	if t, ok := p.tokens[imageID]; ok {
		p.hits++
		p.touch(imageID)
		return t
	}
	p.misses++
	p.insert(imageID, visualTokens)
	return 0
}

func (p *PrefixCache) touch(id uint32) {
	for i, v := range p.order {
		if v == id {
			p.order = append(append(p.order[:i:i], p.order[i+1:]...), id)
			return
		}
	}
}

func (p *PrefixCache) insert(id uint32, tokens int) {
	if len(p.tokens) >= p.capacity && len(p.order) > 0 {
		victim := p.order[0]
		p.order = p.order[1:]
		delete(p.tokens, victim)
	}
	p.tokens[id] = tokens
	p.order = append(p.order, id)
}

// Stats reports hit/miss counts.
func (p *PrefixCache) Stats() (hits, misses int) { return p.hits, p.misses }

// HitRate reports the fraction of lookups served from cache.
func (p *PrefixCache) HitRate() float64 {
	total := p.hits + p.misses
	if total == 0 {
		return 0
	}
	return float64(p.hits) / float64(total)
}

// Len reports the number of cached images.
func (p *PrefixCache) Len() int { return len(p.tokens) }
