/**
 * @file
 * Implementation of the status helpers.
 */

#include "src/support/status.hh"

#include <cstdlib>
#include <iostream>

namespace pe
{

namespace
{
bool quietFlag = false;
} // namespace

void
setQuiet(bool q)
{
    quietFlag = q;
}

bool
quiet()
{
    return quietFlag;
}

namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << " @ " << file << ":" << line
              << std::endl;
    std::abort();
}

void
fatalImpl(const std::string &msg)
{
    throw FatalError("fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    if (!quietFlag)
        std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    if (!quietFlag)
        std::cerr << "info: " << msg << std::endl;
}

} // namespace detail

} // namespace pe
