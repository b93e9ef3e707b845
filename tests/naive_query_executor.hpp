/**
 * @file
 * Naive reference executor for app::QueryEngine, the oracle of the
 * query-path differential test. It answers a Query by the textbook
 * route: a full scan of every node's retained windows in ingest order
 * (SignalStore::at), never through SignalStore::range() or
 * candidates(), followed by a stable sort on timestamp. The Q1/Q2/Q3
 * semantics are restated here from the descriptor contract rather
 * than shared with the engine: the seizure filter, the any-band
 * bucket-prefix candidate rule of the index, the full-signature hash
 * prefilter, DTW or Euclidean confirmation, shard deadlines, cluster
 * coverage and the modelled cost.
 *
 * Test-only: built in tests/ and linked into the test binaries that
 * use it, never into the library.
 */

#pragma once

#include "scalo/app/query_engine.hpp"

namespace scalo::app::naive {

/**
 * Execute @p query over @p engine's stores by full scans. Every field
 * of the result except the host wall-clock ones (QueryExecution::wall,
 * QueryStats::wall, left at zero) must equal QueryEngine::execute().
 * Node and cluster down flags are read from @p engine.
 */
QueryExecution execute(const QueryEngine &engine, const Query &query);

} // namespace scalo::app::naive
