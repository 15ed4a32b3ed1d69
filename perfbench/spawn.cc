/**
 * @file
 * dlw_spawn TIMEOUT_S RESULT_FILE PROGRAM [ARGS...]
 *
 * Runs PROGRAM with the caller's stdio and writes one line to
 * RESULT_FILE: "<exit code> <wall s> <user+sys s> <peak RSS KiB>".
 *
 * Linux carries a process's peak-RSS mark across fork and exec, so a
 * child forked straight from the (much larger) Python harness would
 * report the harness's peak instead of its own.  Forking from this
 * small process keeps the inherited mark below anything dlwtool
 * reaches.  The child is killed after TIMEOUT_S seconds.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>

namespace
{

pid_t g_child = -1;

extern "C" void
onAlarm(int)
{
    if (g_child > 0)
        kill(g_child, SIGKILL);
}

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 4) {
        std::fprintf(stderr, "usage: dlw_spawn TIMEOUT_S RESULT_FILE "
                             "PROGRAM [ARGS...]\n");
        return 2;
    }
    const unsigned timeout = static_cast<unsigned>(std::atoi(argv[1]));
    const auto t0 = std::chrono::steady_clock::now();
    g_child = fork();
    if (g_child < 0) {
        std::perror("dlw_spawn: fork");
        return 2;
    }
    if (g_child == 0) {
        execvp(argv[3], argv + 3);
        std::perror("dlw_spawn: exec");
        _exit(127);
    }
    std::signal(SIGALRM, onAlarm);
    alarm(timeout);
    int status = 0;
    rusage ru = {};
    while (wait4(g_child, &status, 0, &ru) < 0) {
        if (errno != EINTR) {
            std::perror("dlw_spawn: wait4");
            return 2;
        }
    }
    alarm(0);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
    std::FILE *f = std::fopen(argv[2], "w");
    if (f == nullptr) {
        std::perror("dlw_spawn: result file");
        return 2;
    }
    std::fprintf(f, "%d %.9f %.6f %ld\n", code, wall,
                 seconds(ru.ru_utime) + seconds(ru.ru_stime),
                 ru.ru_maxrss);
    std::fclose(f);
    return 0;
}
