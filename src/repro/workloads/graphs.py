"""Graph workloads: MST, BFS, and PageRank (Table 1).

All three generate their own random graph (no external inputs) and perform
classic graph computations.  MST and BFS use networkx structures; PageRank
runs a dense power iteration in numpy for determinism.  networkx is
imported inside the two functions that use it, so ``import repro`` does
not pay for it.
"""

import collections

import numpy as np

from repro.workloads.base import Workload


def _random_weighted_graph(rng, nodes, edges):
    """A connected Gnm-style graph with uniform random edge weights."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(nodes))
    # A random spanning chain guarantees connectivity.
    order = rng.permutation(nodes)
    for left, right in zip(order, order[1:]):
        graph.add_edge(int(left), int(right),
                       weight=float(rng.uniform(0.1, 10.0)))
    while graph.number_of_edges() < edges:
        u = int(rng.integers(0, nodes))
        v = int(rng.integers(0, nodes))
        if u != v:
            graph.add_edge(u, v, weight=float(rng.uniform(0.1, 10.0)))
    return graph


class GraphMST(Workload):
    """Generates a graph and calculates its minimum spanning tree."""

    name = "graph_mst"
    vcpus = 1
    base_seconds = 6.0
    description = ("Generates a graph and calculates its minimum "
                   "spanning tree.")

    def generate_input(self, rng, scale=1.0):
        nodes = max(8, int(240 * scale))
        return _random_weighted_graph(rng, nodes, edges=nodes * 3)

    def run(self, data):
        import networkx as nx

        return nx.minimum_spanning_tree(data, algorithm="kruskal")

    def summarize(self, output):
        weight = sum(attrs["weight"]
                     for _, _, attrs in output.edges(data=True))
        return {"mst_edges": output.number_of_edges(),
                "mst_weight": round(weight, 6)}


class GraphBFS(Workload):
    """Generates a graph and performs a breadth-first search."""

    name = "graph_bfs"
    vcpus = 1
    base_seconds = 5.5
    description = ("Generates a graph and performs a breadth-first "
                   "search.")

    def generate_input(self, rng, scale=1.0):
        nodes = max(8, int(300 * scale))
        return _random_weighted_graph(rng, nodes, edges=nodes * 4)

    def run(self, data):
        # Manual BFS: depth of every node from node 0.
        depths = {0: 0}
        queue = collections.deque([0])
        while queue:
            node = queue.popleft()
            for neighbor in data.neighbors(node):
                if neighbor not in depths:
                    depths[neighbor] = depths[node] + 1
                    queue.append(neighbor)
        return depths

    def summarize(self, output):
        return {"visited": len(output),
                "max_depth": max(output.values())}


class PageRank(Workload):
    """Generates a graph and computes the PageRank of each node."""

    name = "pagerank"
    vcpus = 1.2
    base_seconds = 7.0
    description = ("Generates a graph and computes the PageRank of "
                   "each node.")

    damping = 0.85
    iterations = 50

    def generate_input(self, rng, scale=1.0):
        nodes = max(8, int(200 * scale))
        # Dense random adjacency with ~6 out-links per node.
        adjacency = (rng.random((nodes, nodes))
                     < (6.0 / nodes)).astype(float)
        np.fill_diagonal(adjacency, 0.0)
        # Dangling nodes link everywhere.
        dangling = adjacency.sum(axis=1) == 0
        adjacency[dangling, :] = 1.0
        np.fill_diagonal(adjacency, 0.0)
        return adjacency

    def run(self, data):
        nodes = data.shape[0]
        transition = data / data.sum(axis=1, keepdims=True)
        rank = np.full(nodes, 1.0 / nodes)
        for _ in range(self.iterations):
            rank = ((1 - self.damping) / nodes
                    + self.damping * transition.T.dot(rank))
        return rank

    def summarize(self, output):
        return {"nodes": int(output.shape[0]),
                "top_rank": round(float(output.max()), 8),
                "rank_sum": round(float(output.sum()), 6)}
