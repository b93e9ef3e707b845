/**
 * @file
 * Reference LP solver, the oracle of the simplex differential test: a
 * dense standard form (`rows x all-columns`) copied into a dense
 * row-major tableau with every column, basic ones included, solved by
 * the same two-phase primal simplex with Bland's rule as
 * ilp::solveLp(). The library's compact tableau must return
 * bit-identical results (status, objective and every value).
 *
 * Test-only: built in tests/ and linked into the test binaries that
 * use it, never into the library.
 */

#pragma once

#include "scalo/ilp/model.hpp"
#include "scalo/ilp/solver.hpp"

namespace scalo::ilp::reference {

/** Solve the continuous relaxation of @p model on the dense tableau. */
Solution solveLp(const Model &model);

} // namespace scalo::ilp::reference
