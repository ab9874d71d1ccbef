"""Set-up cost every CLI command pays before it solves anything.

Imports the package, then for each network parses and validates it with
``fileio.load_multiplex`` and builds every layer matrix with
``build_centrality_matrix``.  Run it as its own process; the caller times
the whole process.  Prints one JSON line with the stored-entry count so
the caller can check that the work was done.

    python3 bench/setup_child.py '[[NETWORK, N_NODES, KIND, SIGMA], ...]'

SIGMA is the PageRank teleportation parameter, null for other kinds.
"""
import json
import sys


def main(argv: list[str]) -> int:
    import supracentrality as sc
    from supracentrality import fileio

    kinds = {
        "eigenvector": lambda sigma: sc.Eigenvector(),
        "authority": lambda sigma: sc.Authority(),
        "pagerank": lambda sigma: sc.PageRank(sigma=sigma),
    }
    layers = stored = 0
    for network, n_nodes, kind_name, sigma in json.loads(argv[0]):
        net = fileio.load_multiplex(network, n_nodes=n_nodes)
        kind = kinds[kind_name](sigma)
        mats = [sc.build_centrality_matrix(layer, kind) for layer in net.layers]
        layers += len(mats)
        stored += sum(m.sparse.nnz for m in mats)
    print(json.dumps({"layers": layers, "stored_entries": stored}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
