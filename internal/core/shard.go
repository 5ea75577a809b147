package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"graphrepair/internal/govern"
	"graphrepair/internal/grammar"
	"graphrepair/internal/hypergraph"
	"graphrepair/internal/order"
)

// Sharded compression (Options.Workers > 1, DESIGN.md §12).
//
// The input is read in place and split into node-disjoint shards, each
// shard is compressed independently on a bounded worker pool (every
// worker owns one compressor, reset in place between the shards it
// claims, so all the per-stage arenas are private), and the per-shard
// grammars are merged — rules admitted in (shard, label)
// order with structurally identical rules deduplicated — into one
// grammar whose start graph is the concatenation of the shard start
// graphs. A final sequential compressor run over the merged start
// graph then compresses cross-shard leftovers (cut edges, repeats the
// virtual-edge stage can reach) and prunes its own rules.
//
// Everything about the decomposition and the merge is a pure function
// of the graph and the options; the worker count only schedules the
// shard runs. Output is therefore identical for every Workers > 1.

const (
	// maxComponentShards bounds the component-mode shard count: the
	// signature-sorted component sequence is cut into at most this many
	// contiguous chunks of balanced edge mass. More, smaller shards keep
	// total work low (shard cost grows superlinearly with the number of
	// repeated components in a shard, which pay ladder passes in the
	// virtual-edge stage) while the pool amortizes scheduling. Fixed
	// (not derived from Workers or GOMAXPROCS) so the decomposition is
	// scheduling-independent.
	maxComponentShards = 128
	// partitionShards is the chunk count of the partition fallback.
	partitionShards = 16
)

// shard is one unit of parallel compression: a node-disjoint subgraph
// with local node IDs 1..n assigned in ascending base-graph order.
type shard struct {
	g *hypergraph.Graph
	// orig maps local node IDs (1-based) to base-graph node IDs.
	orig []hypergraph.NodeID
	// comps is g's weak-component count, which sizes its run.
	comps int
}

// cutEdge is a base-graph edge whose endpoints fell into different
// partition shards; it joins the merged start graph untouched, with
// both endpoints protected (external) in their shards.
type cutEdge struct {
	label    hypergraph.Label
	src, dst hypergraph.NodeID // base-graph IDs
}

// compressSharded implements CompressContext for Workers > 1. The
// input is read in place and never written: the decomposition, the
// shard carving and the remap only read it, and the shards are fresh
// graphs. StartRemap is in the caller's node IDs, as on the sequential
// path (its clone keeps node IDs and the alive-edge order).
func compressSharded(ctx context.Context, g *hypergraph.Graph, terminals hypergraph.Label, opts Options) (*Result, error) {
	// Small shards can finish inside the round-stride poll window, so
	// an already-canceled context is rejected up front: the contract is
	// no partial result, not best-effort completion.
	if err := govern.Checkpoint(ctx, "core: compress"); err != nil {
		return nil, err
	}

	shards, cuts, shardOf, localOf := buildShards(g)
	if len(shards) < 2 {
		// Nothing to parallelize (tiny or empty graph): run the
		// sequential pipeline, which clones the input it consumes.
		c := newCompressor(g, terminals, opts)
		c.ctx = ctx
		return c.run()
	}

	results, err := runShardPool(ctx, shards, terminals, opts)
	if err != nil {
		return nil, err
	}

	return mergeShardResults(ctx, g, shards, cuts, shardOf, localOf, results, terminals, opts)
}

// buildShards decomposes base into node-disjoint shards. Component
// mode sorts weak components by a structural signature and cuts the
// sequence into at most maxComponentShards contiguous chunks of
// balanced edge mass; when one giant component holds more than half
// the edges that cannot balance, so the partition fallback cuts a
// BFS order into partitionShards contiguous chunks instead, demoting
// chunk-crossing edges to the cut list and protecting their endpoints.
// shardOf/localOf are indexed by base node ID (-1 / 0 for dead nodes).
// The decomposition is a pure function of base — never of Workers.
func buildShards(base *hypergraph.Graph) (shards []shard, cuts []cutEdge, shardOf []int32, localOf []hypergraph.NodeID) {
	var cs hypergraph.Components
	n := base.WeakComponentsInto(&cs)
	if n == 0 {
		return nil, nil, nil, nil
	}

	// Edge mass per component (every edge is inside one component).
	mass := make([]int64, n)
	var total int64
	for id := range base.EdgesSeq() {
		mass[cs.Comp[base.Att(id)[0]]]++
		total++
	}
	maxMass := int64(0)
	for _, m := range mass {
		if m > maxMass {
			maxMass = m
		}
	}

	if total > 0 && maxMass*2 > total {
		return buildPartitionShards(base)
	}

	// Component mode: sort components by a structural signature so
	// copies of a repeated component become adjacent, then cut the
	// sorted sequence into at most maxComponentShards contiguous chunks
	// of balanced edge mass. Copies that share a shard collapse into
	// shared rules in that shard's virtual-edge stage, and the merge
	// dedups identical rules across shards — scattering copies (which
	// disjoint per-shard rule spaces cannot recover from) is what this
	// ordering avoids. Ties inside a signature keep component index
	// order, so the result is deterministic.
	nShards := n
	if nShards > maxComponentShards {
		nShards = maxComponentShards
	}
	sig := componentSignatures(base, &cs, n)
	bySig := make([]int32, n)
	for i := range bySig {
		bySig[i] = int32(i)
	}
	sort.SliceStable(bySig, func(a, b int) bool { return sig[bySig[a]] < sig[bySig[b]] })

	// Contiguous chunking by mass. An oversized component overfills its
	// chunk and the walk skips ahead, so chunk IDs are compacted (in
	// first-use order, which is ascending) before carving.
	compShard := make([]int32, n)
	perChunk := (total + int64(nShards) - 1) / int64(nShards)
	chunk, acc := int32(0), int64(0)
	for _, ci := range bySig {
		for int(chunk) < nShards-1 && acc >= perChunk*int64(chunk+1) {
			chunk++
		}
		compShard[ci] = chunk
		acc += mass[ci]
	}
	remapChunk := make([]int32, nShards)
	for i := range remapChunk {
		remapChunk[i] = -1
	}
	used := int32(0)
	for _, ci := range bySig {
		if remapChunk[compShard[ci]] < 0 {
			remapChunk[compShard[ci]] = used
			used++
		}
		compShard[ci] = remapChunk[compShard[ci]]
	}
	nShards = int(used)

	nodeShard := func(v hypergraph.NodeID) int32 { return compShard[cs.Comp[v]] }
	shards, shardOf, localOf = carveShards(base, nShards, nodeShard)
	return shards, nil, shardOf, localOf
}

// componentSignatures returns an order-independent structural hash per
// weak component: node and edge counts mixed with the multisets of
// edge labels and node degrees. Isomorphic components always collide
// (the property the chunking needs); unequal components may collide
// too, which costs a little balance but never correctness.
func componentSignatures(base *hypergraph.Graph, cs *hypergraph.Components, n int) []uint64 {
	nNodes := make([]uint64, n)
	nEdges := make([]uint64, n)
	degMix := make([]uint64, n)
	labMix := make([]uint64, n)
	for v := hypergraph.NodeID(1); v <= base.MaxNodeID(); v++ {
		if !base.HasNode(v) {
			continue
		}
		c := cs.Comp[v]
		nNodes[c]++
		degMix[c] += mix64(uint64(base.Degree(v)))
	}
	for id := range base.EdgesSeq() {
		c := cs.Comp[base.Att(id)[0]]
		nEdges[c]++
		labMix[c] += mix64(uint64(base.Label(id)))
	}
	sig := make([]uint64, n)
	for i := range sig {
		sig[i] = mix64(mix64(mix64(mix64(nNodes[i])^nEdges[i])^degMix[i]) ^ labMix[i])
	}
	return sig
}

// mix64 is the splitmix64 finalizer, used as a cheap hash mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// buildPartitionShards cuts a BFS node order into partitionShards
// contiguous chunks of balanced (1+degree) mass. Chunk-crossing edges
// go to the cut list; their endpoints are marked external on their
// shard graphs so no digram replacement can consume them
// (buildOrientedInto treats graph-external nodes as occurrence-external,
// keeping them in every rule's attachment).
func buildPartitionShards(base *hypergraph.Graph) (shards []shard, cuts []cutEdge, shardOf []int32, localOf []hypergraph.NodeID) {
	ord := order.NewRefiner().Compute(base, order.BFS, 0)
	var totalMass int64
	for _, v := range ord.Seq {
		totalMass += int64(1 + base.Degree(v))
	}
	nShards := partitionShards
	if len(ord.Seq) < nShards {
		nShards = len(ord.Seq)
	}
	if nShards < 2 {
		return nil, nil, nil, nil
	}

	// Walk the BFS order accumulating mass; start a new chunk whenever
	// the running chunk reached its proportional share.
	chunkOf := make([]int32, base.MaxNodeID()+1)
	chunk, acc := int32(0), int64(0)
	perChunk := (totalMass + int64(nShards) - 1) / int64(nShards)
	for _, v := range ord.Seq {
		if acc >= perChunk*int64(chunk+1) && int(chunk) < nShards-1 {
			chunk++
		}
		chunkOf[v] = chunk
		acc += int64(1 + base.Degree(v))
	}

	nodeShard := func(v hypergraph.NodeID) int32 { return chunkOf[v] }
	shards, shardOf, localOf = carveShards(base, nShards, nodeShard)

	// Split edges: in-chunk edges were added by carveShards; it leaves
	// cross-chunk edges to us. Collect them in EdgesSeq order and
	// protect their endpoints.
	boundary := make([][]hypergraph.NodeID, nShards)
	seen := make([]bool, base.MaxNodeID()+1)
	for id := range base.EdgesSeq() {
		att := base.Att(id)
		u, w := att[0], att[1]
		if shardOf[u] == shardOf[w] {
			continue
		}
		cuts = append(cuts, cutEdge{label: base.Label(id), src: u, dst: w})
		for _, v := range [2]hypergraph.NodeID{u, w} {
			if !seen[v] {
				seen[v] = true
				s := shardOf[v]
				boundary[s] = append(boundary[s], localOf[v])
			}
		}
	}
	for s := range boundary {
		if len(boundary[s]) > 0 {
			// Ascending local order (= ascending base order) so the ext
			// sequence is deterministic.
			sort.Slice(boundary[s], func(a, b int) bool { return boundary[s][a] < boundary[s][b] })
			shards[s].g.SetExt(boundary[s]...)
		}
	}
	return shards, cuts, shardOf, localOf
}

// carveShards materializes the shard subgraphs given a node→shard
// assignment: local IDs follow ascending base ID, and every base edge
// whose endpoints share a shard is added in EdgesSeq order. Edges
// crossing shards are skipped (the partition fallback collects them
// separately; component mode has none). Each shard graph is allocated
// once, with its compressor run's reservation.
func carveShards(base *hypergraph.Graph, nShards int, nodeShard func(hypergraph.NodeID) int32) ([]shard, []int32, []hypergraph.NodeID) {
	shardOf := make([]int32, base.MaxNodeID()+1)
	localOf := make([]hypergraph.NodeID, base.MaxNodeID()+1)
	for i := range shardOf {
		shardOf[i] = -1
	}
	counts := make([]int, nShards)
	for v := hypergraph.NodeID(1); v <= base.MaxNodeID(); v++ {
		if !base.HasNode(v) {
			continue
		}
		s := nodeShard(v)
		shardOf[v] = s
		counts[s]++
		localOf[v] = hypergraph.NodeID(counts[s])
	}
	shards := make([]shard, nShards)
	for s := range shards {
		shards[s].g = hypergraph.New(counts[s])
		shards[s].orig = make([]hypergraph.NodeID, counts[s]+1)
		shards[s].comps = counts[s] // until edges join nodes, below
	}
	for v := hypergraph.NodeID(1); v <= base.MaxNodeID(); v++ {
		if s := shardOf[v]; s >= 0 {
			shards[s].orig[localOf[v]] = v
		}
	}
	// Pre-size: count per-shard edges and weak components (a shard
	// starts with one component per node, and every in-shard edge
	// joining two of them merges them), then add the edges in EdgesSeq
	// order.
	eCounts := make([]int, nShards)
	jc := newJoinCounter(int(base.MaxNodeID()) + 1)
	for id := range base.EdgesSeq() {
		att := base.Att(id)
		if s := shardOf[att[0]]; s == shardOf[att[1]] {
			eCounts[s]++
			if jc.join(int32(att[0]), int32(att[1])) {
				shards[s].comps--
			}
		}
	}
	for s := range shards {
		ids, att := runReservation(eCounts[s], shards[s].comps)
		shards[s].g.Reserve(eCounts[s]+ids, 2*eCounts[s]+att)
	}
	for id := range base.EdgesSeq() {
		att := base.Att(id)
		u, w := att[0], att[1]
		if s := shardOf[u]; s == shardOf[w] {
			shards[s].g.AddEdge(base.Label(id), localOf[u], localOf[w])
		}
	}
	return shards, shardOf, localOf
}

// runShardPool compresses every shard on at most opts.Workers
// goroutines. Each worker owns one compressor (arenas are never
// shared): it builds it on its first shard, with the per-edge and
// per-node tables reserved at the largest shard's bound, and resets it
// in place for every later shard, so only the arenas grow past that.
// Workers claim shards off an atomic cursor and stop on the first
// error or cancellation. A worker panic is re-raised on the calling
// goroutine after the pool drains, so the facade's recover backstop
// still observes it.
func runShardPool(ctx context.Context, shards []shard, terminals hypergraph.Label, opts Options) ([]*Result, error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	sopts := shardOptions(opts)
	edgeCap, nodeSlots := poolTableBounds(shards)

	results := make([]*Result, len(shards))
	errs := make([]error, len(shards))
	var cursor atomic.Int32
	var panicked atomic.Value
	nw := opts.Workers
	if nw > len(shards) {
		nw = len(shards)
	}
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, r)
					cancel()
				}
			}()
			var c *compressor
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				// Re-poll per shard: small shards finish inside the
				// round-stride window, so the stride alone would let a
				// canceled run complete.
				if errs[i] = govern.Checkpoint(sctx, "core: compress"); errs[i] != nil {
					cancel()
					continue
				}
				if c == nil {
					c = allocCompressor(edgeCap, nodeSlots)
				}
				results[i], errs[i] = c.runShard(sctx, shards[i], terminals, sopts)
				if errs[i] != nil {
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(r)
	}
	// Report the most meaningful error deterministically: the first
	// (by shard index) non-cancellation error if any — cancellations in
	// other shards are usually just our own cancel fanning out — else
	// the first cancellation.
	var cancelErr error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if errors.Is(e, govern.ErrCanceled) {
			if cancelErr == nil {
				cancelErr = e
			}
			continue
		}
		return nil, e
	}
	if cancelErr != nil {
		return nil, cancelErr
	}
	return results, nil
}

// shardOptions returns the options every shard run uses.
//
// Pruning runs per shard too: a shard rule's con(A) is final when its
// shard finishes, because later stages only ever move NT edges (start
// graph -> new rule RHS), never duplicate or drop them. The merged
// stage then prunes only its own cross-shard rules, keeping the inline
// cost on the parallel side.
//
// Shard stages downgrade the FP order to its single-round FP0
// refinement: the fixpoint's payoff is distinguishing structure at
// long range, which barely exists inside a small shard, while its cost
// (a full refinement sweep per digram round) dominates shard time. The
// merged stage keeps the full fixpoint, so cross-shard ordering still
// sees it. Like everything else here this choice is independent of the
// worker count.
func shardOptions(opts Options) Options {
	opts.Workers = 0
	if opts.Order == order.FP {
		opts.Order = order.FP0
	}
	return opts
}

// poolTableBounds returns the largest shard's edge capacity and
// per-node table length, the bounds a pool worker's compressor is
// reserved at (allocCompressor). carveShards reserved every shard
// graph at its run's bound, so the largest edge capacity bounds every
// shard's edge IDs. Read before the pool starts: shard runs grow their
// graphs.
func poolTableBounds(shards []shard) (edgeCap, nodeSlots int) {
	for i := range shards {
		edgeCap = max(edgeCap, shards[i].g.EdgeCap())
		nodeSlots = max(nodeSlots, int(shards[i].g.MaxNodeID())+1)
	}
	return edgeCap, nodeSlots
}

// runShard resets c onto shard sh and compresses it.
func (c *compressor) runShard(ctx context.Context, sh shard, terminals hypergraph.Label, sopts Options) (*Result, error) {
	c.resetOn(sh.g, grammar.New(terminals, nil), sopts, sh.comps)
	c.ctx = ctx
	return c.run()
}

// mergeShardResults concatenates the shard grammars into one and runs
// the final sequential stage over the merged start graph.
//
// Nonterminal ranges: shard rules are admitted in (shard, label) order
// and deduplicated structurally — a rule whose relabeled right-hand
// side is byte-identical to an already-admitted rule maps to that
// rule's label instead of getting its own. Deterministic shard
// compression gives copies of a repeated component byte-identical rule
// ladders, so the dedup restores the cross-component rule sharing the
// sequential path gets from compressing everything in one space.
// Start graphs are concatenated with node offsets (shard i's compacted
// node v becomes nodeOff_i+v), then the cut edges rejoin the graph
// between protected survivors. The final compressor run compresses
// cross-shard leftovers, runs the virtual-edge stage over the whole
// merged graph, prunes globally, and compacts — its remap composed
// with the per-shard remaps yields the input-ID StartRemap.
func mergeShardResults(ctx context.Context, base *hypergraph.Graph, shards []shard, cuts []cutEdge,
	shardOf []int32, localOf []hypergraph.NodeID, results []*Result,
	terminals hypergraph.Label, opts Options) (*Result, error) {

	nodeOff := make([]hypergraph.NodeID, len(shards))
	totalNodes, totalEdges, totalAtt := 0, 0, 0
	for i, r := range results {
		nodeOff[i] = hypergraph.NodeID(totalNodes)
		s := r.Grammar.Start
		totalNodes += s.NumNodes()
		totalEdges += s.NumEdges()
		for id := range s.EdgesSeq() {
			totalAtt += len(s.Att(id))
		}
	}

	merged := grammar.New(terminals, nil)
	canon := make(map[string]hypergraph.Label)
	labelMap := make([][]hypergraph.Label, len(results))
	var keyBuf []byte
	var agg Stats
	for i, r := range results {
		nts := r.Grammar.Nonterminals()
		lm := make([]hypergraph.Label, len(nts))
		labelMap[i] = lm
		relabel := func(l hypergraph.Label) hypergraph.Label {
			if l <= terminals {
				return l
			}
			return lm[l-terminals-1]
		}
		for k, nt := range nts {
			rhs := r.Grammar.Rule(nt)
			// References are always to earlier rules of the same shard,
			// whose canonical labels are already in lm.
			rhs.Relabel(relabel)
			keyBuf = appendRuleKey(keyBuf[:0], rhs)
			if ml, ok := canon[string(keyBuf)]; ok {
				lm[k] = ml
				continue
			}
			ml := merged.AddRule(rhs)
			canon[string(keyBuf)] = ml
			lm[k] = ml
		}
		agg.Rounds += r.Stats.Rounds
		agg.Replacements += r.Stats.Replacements
		agg.VirtualEdges += r.Stats.VirtualEdges
		agg.SkippedDuplicates += r.Stats.SkippedDuplicates
	}

	// The merged graph's weak components size the final run's
	// reservation, so count them before allocating it: every node
	// starts alone and every edge joining two components merges them.
	mEdges, mComps := totalEdges+len(cuts), totalNodes
	jc := newJoinCounter(totalNodes + 1)
	for i, r := range results {
		s, off := r.Grammar.Start, int32(nodeOff[i])
		for id := range s.EdgesSeq() {
			att := s.Att(id)
			for _, v := range att[1:] {
				if jc.join(int32(att[0])+off, int32(v)+off) {
					mComps--
				}
			}
		}
	}
	cutEnds := make([][2]hypergraph.NodeID, len(cuts))
	for k, ce := range cuts {
		u := mergedNodeOf(ce.src, shardOf, localOf, results, nodeOff)
		w := mergedNodeOf(ce.dst, shardOf, localOf, results, nodeOff)
		if u == 0 || w == 0 {
			return nil, fmt.Errorf("core: shard merge lost a protected cut endpoint (%d -> %d)", ce.src, ce.dst)
		}
		cutEnds[k] = [2]hypergraph.NodeID{u, w}
		if jc.join(int32(u), int32(w)) {
			mComps--
		}
	}
	mg := hypergraph.New(totalNodes)
	ids, att := runReservation(mEdges, mComps)
	mg.Reserve(mEdges+ids, totalAtt+2*len(cuts)+att)
	attBuf := make([]hypergraph.NodeID, 0, MaxSupportedRank)
	for i, r := range results {
		s := r.Grammar.Start
		off, lm := nodeOff[i], labelMap[i]
		for id := range s.EdgesSeq() {
			attBuf = attBuf[:0]
			for _, v := range s.Att(id) {
				attBuf = append(attBuf, v+off)
			}
			l := s.Label(id)
			if l > terminals {
				l = lm[l-terminals-1]
			}
			mg.AddEdge(l, attBuf...)
		}
	}
	// Cut edges: both endpoints are protected shard-external nodes, so
	// they survived shard compression and compaction.
	for k, ce := range cuts {
		mg.AddEdge(ce.label, cutEnds[k][0], cutEnds[k][1])
	}

	// Final sequential stage over the merged graph. FPClasses is left
	// to this stage (per-shard class counts are not summable into the
	// paper's |[≅FP]| of one graph); the merged-graph refinement fills
	// it, so it is still a deterministic function of the input.
	mc := newCompressorOn(mg, merged, opts, mComps)
	mc.ctx = ctx
	res, err := mc.run()
	if err != nil {
		return nil, err
	}
	res.Stats.Rounds += agg.Rounds
	res.Stats.Replacements += agg.Replacements
	res.Stats.VirtualEdges += agg.VirtualEdges
	res.Stats.SkippedDuplicates += agg.SkippedDuplicates

	// Compose input → shard-compaction → merged-offset → final
	// compaction into one flat remap in base IDs. The remap is an
	// injection from surviving input nodes but not necessarily onto
	// the start graph: global pruning may inline a pruned rule's
	// internal nodes into it, and those have no input preimage.
	finalRemap := make([]hypergraph.NodeID, base.MaxNodeID()+1)
	for v := hypergraph.NodeID(1); v <= base.MaxNodeID(); v++ {
		if shardOf[v] < 0 {
			continue
		}
		if m := mergedNodeOf(v, shardOf, localOf, results, nodeOff); m != 0 {
			finalRemap[v] = res.startRemap[m]
		}
	}
	res.startRemap = finalRemap
	return res, nil
}

// appendRuleKey serializes a rule right-hand side for structural
// deduplication: node count, external sequence, and the alive edges in
// ID order as (label, attachment). Two rules built by identical
// deterministic compression histories serialize identically; node and
// edge IDs are part of the key, so this is exact-equality dedup, not
// isomorphism.
func appendRuleKey(b []byte, g *hypergraph.Graph) []byte {
	b = binary.AppendUvarint(b, uint64(g.MaxNodeID()))
	ext := g.Ext()
	b = binary.AppendUvarint(b, uint64(len(ext)))
	for _, v := range ext {
		b = binary.AppendUvarint(b, uint64(v))
	}
	for id := range g.EdgesSeq() {
		b = binary.AppendUvarint(b, uint64(g.Label(id)))
		att := g.Att(id)
		b = binary.AppendUvarint(b, uint64(len(att)))
		for _, v := range att {
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	return b
}

// mergedNodeOf maps a base-graph node to its merged-start-graph ID, or
// 0 if shard compression consumed it.
func mergedNodeOf(v hypergraph.NodeID, shardOf []int32, localOf []hypergraph.NodeID,
	results []*Result, nodeOff []hypergraph.NodeID) hypergraph.NodeID {
	s := shardOf[v]
	m := results[s].startRemap[localOf[v]]
	if m == 0 {
		return 0
	}
	return nodeOff[s] + m
}

// joinCounter is a union-find over dense node IDs that reports which
// joins merge two components, for counting weak components before a
// graph is built.
type joinCounter []int32

func newJoinCounter(n int) joinCounter {
	p := make(joinCounter, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

func (p joinCounter) root(v int32) int32 {
	for p[v] != v {
		p[v] = p[p[v]] // path halving
		v = p[v]
	}
	return v
}

// join merges the components of a and b and reports whether they were
// distinct.
func (p joinCounter) join(a, b int32) bool {
	ra, rb := p.root(a), p.root(b)
	if ra == rb {
		return false
	}
	p[ra] = rb
	return true
}
