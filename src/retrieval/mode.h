// The candidate-retrieval backend: a single value. Every spatial candidate
// search in src/ runs on the shared engine (retrieval/candidate_engine.h,
// through retrieval/waiting_pool.h), so nothing in the library reads this
// type. It survives only as the type of two fields, AlgorithmDeps::
// retrieval and ServiceOptions::retrieval, which the end-to-end benchmark
// driver (bench/e2e/ftoa_e2e.cc) still assigns; both go with the driver's
// next edit.

#ifndef FTOA_RETRIEVAL_MODE_H_
#define FTOA_RETRIEVAL_MODE_H_

namespace ftoa {

/// The one candidate-search backend: the shared top-k engine.
enum class RetrievalMode { kEngine };

}  // namespace ftoa

#endif  // FTOA_RETRIEVAL_MODE_H_
