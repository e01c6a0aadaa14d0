#ifndef STRIP_TESTS_TEST_UTIL_H_
#define STRIP_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <thread>

#include "strip/common/status.h"

#define ASSERT_OK(expr)                              \
  do {                                               \
    auto _st = (expr);                               \
    ASSERT_TRUE(_st.ok()) << _st.ToString();         \
  } while (0)

#define EXPECT_OK(expr)                              \
  do {                                               \
    auto _st = (expr);                               \
    EXPECT_TRUE(_st.ok()) << _st.ToString();         \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)              \
  STRIP_ASSIGN_OR_RETURN_TEST_IMPL(                  \
      STRIP_CONCAT_(_test_res_, __LINE__), lhs, expr)

#define STRIP_ASSIGN_OR_RETURN_TEST_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                     \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();      \
  lhs = tmp.take()

namespace strip {

/// Runs `fn` on its own thread and waits up to `limit` for it to return.
/// A call that hangs can be neither joined nor cancelled, so on timeout
/// the test process exits with a failure instead of running into ctest's
/// own, much longer, timeout.
inline void ReturnsWithin(std::chrono::milliseconds limit, const char* what,
                          const std::function<void()>& fn) {
  std::promise<void> done;
  std::future<void> returned = done.get_future();
  std::thread worker([&] {
    fn();
    done.set_value();
  });
  if (returned.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "%s did not return within %lld ms\n", what,
                 static_cast<long long>(limit.count()));
    std::fflush(stderr);
    std::_Exit(1);
  }
  worker.join();
}

}  // namespace strip

#endif  // STRIP_TESTS_TEST_UTIL_H_
