package matching

// HopcroftKarp computes a maximum matching of the bipartite graph whose
// left vertices are 0..nLeft-1 and right vertices 0..nRight-1, where
// adj(u) lists the right neighbours of left vertex u. It returns mate,
// with mate[u] the right partner of u or -1 when u is unmatched.
//
// The algorithm is Hopcroft and Karp's (SIAM J. Comput. 1973): a greedy
// initial matching, then phases that each find a maximal set of
// vertex-disjoint shortest augmenting paths, one BFS to layer the left
// vertices and one DFS per free left vertex along the layers. At most
// O(√n) phases run, each O(n + m), so the whole is O(m√n). The DFS is
// iterative, so long augmenting paths cost no goroutine stack.
func HopcroftKarp(nLeft, nRight int, adj func(u int) []int32) []int {
	mate := fill(nLeft, none)
	mateR := fill(nRight, none)
	for u := 0; u < nLeft; u++ {
		for _, v := range adj(u) {
			if mateR[v] == none {
				mate[u], mateR[v] = int(v), u
				break
			}
		}
	}
	const unlayered = int32(-1)
	layer := make([]int32, nLeft)
	next := make([]int, nLeft) // per-phase cursor into adj(u)
	queue := make([]int, 0, nLeft)
	stack := make([]int, 0, nLeft)
	for {
		// Layer the left vertices by alternating BFS from the free ones;
		// limit is the layer at which a free right vertex is first seen,
		// so only shortest augmenting paths are followed.
		queue = queue[:0]
		for u := range layer {
			layer[u] = unlayered
			if mate[u] == none {
				layer[u] = 0
				queue = append(queue, u)
			}
		}
		limit := unlayered
		for h := 0; h < len(queue); h++ {
			u := queue[h]
			if limit != unlayered && layer[u] >= limit {
				break
			}
			for _, v := range adj(u) {
				switch w := mateR[v]; {
				case w == none:
					if limit == unlayered {
						limit = layer[u]
					}
				case layer[w] == unlayered:
					layer[w] = layer[u] + 1
					queue = append(queue, w)
				}
			}
		}
		if limit == unlayered {
			return mate
		}
		for u := range next {
			next[u] = 0
		}
		for root := 0; root < nLeft; root++ {
			if mate[root] != none || layer[root] != 0 {
				continue
			}
			stack = append(stack[:0], root)
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				nb := adj(u)
				end := none
				descended := false
				for next[u] < len(nb) {
					v := int(nb[next[u]])
					next[u]++
					if w := mateR[v]; w == none {
						if layer[u] == limit {
							end = v
							break
						}
					} else if layer[u] < limit && layer[w] == layer[u]+1 {
						stack = append(stack, w)
						descended = true
						break
					}
				}
				if end != none {
					// Flip the path: each stacked vertex takes the right
					// vertex that led to its successor, the top takes end.
					for i := len(stack) - 1; i >= 0; i-- {
						x := stack[i]
						prev := mate[x]
						mate[x], mateR[end] = end, x
						end = prev
					}
					break
				}
				if !descended {
					// Dead end: no shortest augmenting path passes u
					// in this phase.
					layer[u] = unlayered
					stack = stack[:len(stack)-1]
				}
			}
		}
	}
}
