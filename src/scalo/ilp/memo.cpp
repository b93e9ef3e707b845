#include "scalo/ilp/memo.hpp"

#include <cstdint>
#include <cstring>
#include <type_traits>

namespace scalo::ilp {

namespace {

/** Which solver a key was posed to. */
enum class Solver : std::uint8_t
{
    Lp,
    Ilp,
};

/** Append the object representation of @p value (doubles by bits). */
template <class T>
void
put(std::string &out, T value)
{
    static_assert(std::is_trivially_copyable_v<T>);
    char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    out.append(bytes, sizeof(T));
}

void
putExpr(std::string &out, const Expr &expr)
{
    put(out, static_cast<std::uint64_t>(expr.size()));
    for (const Term &term : expr) {
        put(out, term.variable);
        put(out, term.coefficient);
    }
}

/**
 * The canonical encoding of everything the solver reads: names are
 * not part of it, and every field is length-prefixed or fixed-width,
 * so distinct problems never share a key.
 */
std::string
canonicalKey(const Model &model, Solver solver, int max_nodes)
{
    std::string key;
    put(key, solver);
    put(key, max_nodes);
    put(key, static_cast<std::uint64_t>(model.variables().size()));
    for (const Variable &var : model.variables()) {
        put(key, var.lower);
        put(key, var.upper);
        put(key, static_cast<std::uint8_t>(var.integer));
    }
    put(key, static_cast<std::uint64_t>(model.constraints().size()));
    for (const Constraint &con : model.constraints()) {
        putExpr(key, con.expr);
        put(key, con.relation);
        put(key, con.rhs);
    }
    putExpr(key, model.objective());
    put(key, static_cast<std::uint8_t>(model.maximizing()));
    return key;
}

} // namespace

Solution
SolveMemo::solveLp(const Model &model)
{
    std::string key = canonicalKey(model, Solver::Lp, 0);
    if (std::optional<Solution> hit = find(key))
        return *std::move(hit);
    return keep(std::move(key), ilp::solveLp(model));
}

Solution
SolveMemo::solveIlp(const Model &model, int max_nodes)
{
    std::string key = canonicalKey(model, Solver::Ilp, max_nodes);
    if (std::optional<Solution> hit = find(key))
        return *std::move(hit);
    return keep(std::move(key), ilp::solveIlp(model, max_nodes));
}

SolveMemo::Counts
SolveMemo::counts() const
{
    util::MutexLock lock(mtx);
    return tally;
}

std::optional<Solution>
SolveMemo::find(const std::string &key)
{
    util::MutexLock lock(mtx);
    const auto it = entries.find(key);
    if (it == entries.end())
        return std::nullopt;
    ++tally.reused;
    return it->second;
}

Solution
SolveMemo::keep(std::string key, Solution solution)
{
    util::MutexLock lock(mtx);
    ++tally.solved;
    entries.try_emplace(std::move(key), solution);
    return solution;
}

} // namespace scalo::ilp
