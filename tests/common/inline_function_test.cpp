#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <utility>

#include "common/inline_function.hpp"

namespace ble {
namespace {

TEST(InlineFunctionTest, DefaultIsEmpty) {
    InlineFunction<void()> fn;
    EXPECT_FALSE(fn);
}

TEST(InlineFunctionTest, CallsWithArgumentsAndReturnsValue) {
    int base = 10;
    InlineFunction<int(int, const std::string&)> fn = [&base](int x, const std::string& s) {
        return base + x + static_cast<int>(s.size());
    };
    ASSERT_TRUE(fn);
    EXPECT_EQ(fn(5, "abc"), 18);
}

TEST(InlineFunctionTest, MutableStateSurvivesMoves) {
    InlineFunction<int()> a = [n = 0]() mutable { return ++n; };
    EXPECT_EQ(a(), 1);
    InlineFunction<int()> b = std::move(a);
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty by contract
    EXPECT_EQ(b(), 2);
    InlineFunction<int()> c;
    c = std::move(b);
    EXPECT_EQ(c(), 3);
}

TEST(InlineFunctionTest, MoveOnlyCaptureIsAccepted) {
    auto owned = std::make_unique<int>(41);
    InlineFunction<int()> fn = [p = std::move(owned)] { return *p + 1; };
    EXPECT_EQ(fn(), 42);
}

TEST(InlineFunctionTest, InlineAndBoxedCapturesAreDestroyedExactlyOnce) {
    auto token = std::make_shared<int>(0);
    auto small = [token] {};
    std::array<char, 128> ballast{};
    auto big = [token, ballast] { (void)ballast; };
    static_assert(InlineFunction<void()>::stores_inline<decltype(small)>);
    static_assert(!InlineFunction<void()>::stores_inline<decltype(big)>);
    {
        InlineFunction<void()> a = small;
        InlineFunction<void()> b = big;
        EXPECT_EQ(token.use_count(), 5);
        InlineFunction<void()> moved_a = std::move(a);
        InlineFunction<void()> moved_b = std::move(b);
        EXPECT_EQ(token.use_count(), 5);  // relocation neither copies nor leaks
        moved_a = std::move(moved_b);     // drops the inline one, takes the box
        EXPECT_EQ(token.use_count(), 4);
    }
    EXPECT_EQ(token.use_count(), 3);
}

}  // namespace
}  // namespace ble
