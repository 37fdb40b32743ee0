"""From orbit-finite coalgebras to finite term graphs and back.

Run with: python3 demos/coalgebra_construction.py
"""

from ratlam import (
    alpha_bisim,
    c_construct,
    gen_pair,
    gen_rsigma,
    graph_of,
    graph_to_coalgebra,
    orbit_count,
    parse_term,
    print_coalgebra,
    print_graph,
    rsigma_count,
    size_bound,
    subtree_count,
)


def main():
    # The two-orbit example: single variables and ordered pairs of distinct
    # variables, where a pair steps to the application of its components.
    sym, root = gen_pair()
    print("pair coalgebra:")
    print(print_coalgebra(sym))
    full = c_construct(sym, root, sym.carrier)
    reach = c_construct(sym, root)
    print(f"root {root} materializes to: {print_graph(reach)}")
    print(f"enumerated carrier: {len(full.nodes)} nodes "
          f"(bound {size_bound(2, sym.support_bound)}), "
          f"reachable part: {len(reach.nodes)} nodes")
    print()

    # Any term graph can be presented as a coalgebra and rebuilt.
    g = graph_of(parse_term("mu a. \\v0. mu b. \\v1. #a #b"))
    sym2, root2 = graph_to_coalgebra(g)
    back = c_construct(sym2, root2)
    print(f"roundtrip of {print_graph(g)}:")
    print(f"  {len(sym2.carrier.schemas)} orbits, rebuilt as {print_graph(back)}")
    print(f"  alpha-equivalent to the original: {alpha_bisim(g, back)}")
    print()

    # A family whose subtree count grows like a factorial while the orbit
    # count only grows linearly: sharing names is what orbits buy you.
    for level in (1, 2, 3):
        graph = gen_rsigma(level)
        print(f"level {level}: {subtree_count(graph)} subtrees "
              f"(closed form {rsigma_count(level)}), "
              f"{orbit_count(graph)} orbits")


if __name__ == "__main__":
    main()
