#include "campaign/endpoint.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <thread>
#include <utility>

#include <sys/wait.h>
#include <unistd.h>

namespace injectable::campaign {

namespace {

class InprocessEndpoint final : public Endpoint {
public:
    explicit InprocessEndpoint(WorkerOptions options) : options_(options) {}

    ~InprocessEndpoint() override {
        if (thread_.joinable()) thread_.join();
    }

    ByteStream* start(const CampaignPlan& plan, std::vector<int> task_ids,
                      std::string* error) override {
        (void)error;
        ConduitPair pair = make_conduit_pair();
        leader_ = std::move(pair.leader);
        // The worker thread owns its end; plan/tasks are copied in because
        // the leader's plan outlives the round but the ids vector may not.
        thread_ = std::thread(
            [this, &plan, worker_stream = std::shared_ptr<ByteStream>(std::move(pair.worker)),
             ids = std::move(task_ids)] {
                ok_ = run_worker_tasks(plan, ids, *worker_stream, options_, &worker_error_);
            });
        return leader_.get();
    }

    bool finish(std::string* error) override {
        if (thread_.joinable()) thread_.join();
        if (!ok_ && error != nullptr) *error = worker_error_;
        return ok_;
    }

    std::string describe() const override {
        return "inprocess worker " + std::to_string(options_.worker_id);
    }

private:
    WorkerOptions options_;
    std::unique_ptr<ByteStream> leader_;
    std::thread thread_;
    bool ok_ = false;
    std::string worker_error_;
};

class SpawnEndpoint final : public Endpoint {
public:
    explicit SpawnEndpoint(SpawnOptions options) : options_(std::move(options)) {}

    ~SpawnEndpoint() override {
        interrupt();
        if (pid_ > 0) ::waitpid(pid_, nullptr, 0);
    }

    ByteStream* start(const CampaignPlan& plan, std::vector<int> task_ids,
                      std::string* error) override {
        (void)plan;  // the child re-reads the plan from options_.plan_path
        auto fail = [&](const std::string& message) -> ByteStream* {
            if (error != nullptr) *error = message;
            return nullptr;
        };
        std::string tasks_csv;
        for (const int id : task_ids) {
            if (!tasks_csv.empty()) tasks_csv += ',';
            tasks_csv += std::to_string(id);
        }
        int fds[2];
        if (::pipe(fds) != 0) return fail(std::string("pipe: ") + std::strerror(errno));

        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            return fail(std::string("fork: ") + std::strerror(errno));
        }
        if (pid == 0) {
            ::dup2(fds[1], STDOUT_FILENO);
            ::close(fds[0]);
            ::close(fds[1]);
            const std::string worker_id = std::to_string(options_.worker.worker_id);
            const std::string jobs = std::to_string(options_.worker.jobs);
            const std::string crash = std::to_string(options_.worker.crash_after_trials);
            const char* argv[] = {options_.binary.c_str(),
                                  "worker",
                                  "--plan",
                                  options_.plan_path.c_str(),
                                  "--tasks",
                                  tasks_csv.c_str(),
                                  "--worker",
                                  worker_id.c_str(),
                                  "--jobs",
                                  jobs.c_str(),
                                  "--crash-after-trials",
                                  crash.c_str(),
                                  nullptr};
            ::execv(options_.binary.c_str(), const_cast<char* const*>(argv));
            _exit(127);
        }
        pid_ = pid;
        ::close(fds[1]);
        leader_ = std::make_unique<FdStream>(fds[0]);
        return leader_.get();
    }

    void interrupt() override {
        if (pid_ > 0) ::kill(pid_, SIGKILL);
    }

    bool finish(std::string* error) override {
        if (pid_ <= 0) {
            if (error != nullptr) *error = "worker was never spawned";
            return false;
        }
        int status = 0;
        while (::waitpid(pid_, &status, 0) < 0) {
            if (errno != EINTR) {
                if (error != nullptr) *error = std::string("waitpid: ") + std::strerror(errno);
                pid_ = -1;
                return false;
            }
        }
        pid_ = -1;
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return true;
        if (error != nullptr) {
            if (WIFSIGNALED(status)) {
                *error = "worker killed by signal " + std::to_string(WTERMSIG(status));
            } else {
                *error = "worker exited with status " + std::to_string(WEXITSTATUS(status));
            }
        }
        return false;
    }

    std::string describe() const override {
        return "spawned worker " + std::to_string(options_.worker.worker_id);
    }

private:
    SpawnOptions options_;
    pid_t pid_ = -1;
    std::unique_ptr<ByteStream> leader_;
};

}  // namespace

std::unique_ptr<Endpoint> make_inprocess_endpoint(WorkerOptions options) {
    return std::make_unique<InprocessEndpoint>(options);
}

std::unique_ptr<Endpoint> make_spawn_endpoint(SpawnOptions options) {
    return std::make_unique<SpawnEndpoint>(std::move(options));
}

}  // namespace injectable::campaign
