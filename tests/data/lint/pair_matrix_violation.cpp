// helix-lint: treat-as(src/sim/fixture.cpp)
// Seeded violations for the pair-matrix check: serving-path state
// sized endpoints x endpoints, the dense link matrix shape that cost
// gigabytes on 10k-node clusters.
#include <cstddef>
#include <vector>

struct FixtureLinks
{
    std::vector<double> busyUntil;
    std::vector<int> edgeOf;
    std::vector<char> seen;

    void
    init(int n)
    {
        int side = n + 1;
        busyUntil.resize(static_cast<size_t>(side) * side);  // LINT-EXPECT: pair-matrix
        edgeOf.assign(side * side, -1);  // LINT-EXPECT: pair-matrix
        // LINT-EXPECT-NEXT: pair-matrix
        seen.reserve((n + 1) *
                     (n + 1));
        std::vector<float> scratch(n * n);  // LINT-EXPECT: pair-matrix
        (void)scratch;
    }
};
