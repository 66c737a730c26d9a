// helix-lint: treat-as(src/sim/fixture.cpp)
// Clean counterpart for the pair-matrix check: per-source rows sized
// by endpoints, rectangular tables, squares that size nothing, and a
// justified small class table.
#include <cstddef>
#include <vector>

struct FixtureLinks
{
    std::vector<std::vector<double>> rows;
    std::vector<double> table;
    std::vector<double> classTable;

    double
    init(int n, int rows_used, int cols_used, int classes, double x)
    {
        rows.resize(static_cast<size_t>(n) + 1);
        table.assign(static_cast<size_t>(rows_used) * cols_used, 0.0);
        // helix-lint: allow(pair-matrix) classes are regions, a handful per cluster
        classTable.assign(static_cast<size_t>(classes) * classes, 0.0);
        std::vector<int> degree(2 * n, 0);
        return x * x + static_cast<double>(degree.size());
    }
};
