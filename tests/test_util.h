#ifndef BLAS_TESTS_TEST_UTIL_H_
#define BLAS_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas.h"
#include "xml/dom.h"
#include "xpath/naive_eval.h"
#include "xpath/parser.h"

namespace blas {

/// Builds a BlasSystem (with DOM retained) from XML text or aborts the test.
inline BlasSystem MustBuild(const std::string& xml) {
  BlasOptions options;
  options.keep_dom = true;
  Result<BlasSystem> sys = BlasSystem::FromXml(xml, options);
  EXPECT_TRUE(sys.ok()) << sys.status().ToString();
  if (!sys.ok()) std::abort();
  return std::move(sys).value();
}

/// What the engines read from `sys`, for running them directly.
inline ExecEnv EnvOf(const BlasSystem& sys) {
  return ExecEnv{&sys.store(), &sys.dict(), &sys.codec(), &sys.summary()};
}

/// Runs `xpath` through every translator and engine and checks each result
/// against the naive DOM evaluator. Translators that legitimately refuse a
/// query (e.g. wildcards under Split) are skipped.
inline void ExpectAllAgree(const BlasSystem& sys, const std::string& xpath) {
  Result<Query> query = ParseXPath(xpath);
  ASSERT_TRUE(query.ok()) << xpath << ": " << query.status().ToString();
  ASSERT_NE(sys.dom(), nullptr) << "build with keep_dom";
  std::vector<uint32_t> expected = NaiveEvalStarts(*query, *sys.dom());

  for (Translator translator :
       {Translator::kDLabel, Translator::kSplit, Translator::kPushUp,
        Translator::kUnfold}) {
    for (Engine engine : {Engine::kRelational, Engine::kTwig}) {
      Result<QueryResult> result = sys.Execute(
          *query, {.translator = translator, .engine = engine});
      if (!result.ok() &&
          result.status().code() == StatusCode::kUnsupported) {
        continue;
      }
      ASSERT_TRUE(result.ok())
          << xpath << " [" << TranslatorName(translator) << "/"
          << EngineName(engine) << "]: " << result.status().ToString();
      EXPECT_EQ(result->starts, expected)
          << xpath << " [" << TranslatorName(translator) << "/"
          << EngineName(engine) << "] disagrees with NaiveEval";
    }
  }
}

}  // namespace blas

#endif  // BLAS_TESTS_TEST_UTIL_H_
